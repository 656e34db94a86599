#include "norec/norec.hpp"

#include "sim/platform.hpp"

namespace oftm::norec {

template class Norec<core::BoxedSlots<core::HwPlatform>>;
template class Norec<core::BoxedSlots<sim::SimPlatform>>;

}  // namespace oftm::norec
