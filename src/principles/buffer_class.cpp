#include "principles/buffer_class.hpp"

#include "obs/metrics.hpp"

namespace fusecu {

BufferClass classify_buffer(const TensorOp& op, BufferSize buffer_size) {
  return classify_buffer(op.min_extent(), op.tensor_size(op.smallest_tensor()), buffer_size);
}

BufferClass classify_buffer(Index dmin, Index tensor_min, BufferSize buffer_size) {
  BufferClass cls = BufferClass::kTiny;
  if (buffer_size > tensor_min) {
    cls = BufferClass::kLarge;
  } else if (buffer_size * 2 > dmin * dmin) {
    cls = BufferClass::kMedium;
  } else if (buffer_size * 4 > dmin * dmin) {
    cls = BufferClass::kSmall;
  }
  static CounterFamily<4> classes("principles/buffer_class/");
  classes.at(static_cast<std::size_t>(cls), to_string(cls)).add();
  return cls;
}

ShiftRange single_two_shift_range(const TensorOp& op) {
  const Index dmin = op.min_extent();
  return {dmin * dmin / 4, dmin * dmin / 2};
}

const char* to_string(BufferClass cls) {
  switch (cls) {
    case BufferClass::kTiny:
      return "tiny";
    case BufferClass::kSmall:
      return "small";
    case BufferClass::kMedium:
      return "medium";
    case BufferClass::kLarge:
      return "large";
  }
  return "?";
}

}  // namespace fusecu
