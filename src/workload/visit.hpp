// The recipe table, and static dispatch through it. with_recipe() is the
// one place a recipe name becomes a backend. make_tm() (workload/
// factory.cpp) allocates through it; visit_tm() constructs the TM on the
// stack and hands it to a generic lambda as its *concrete* type. Where
// make_tm() returns a type-erased core::TransactionalMemory (one virtual
// call per operation), visit_tm() lets the driver and benches instantiate
// their hot loops per backend — reads, writes and commits devirtualize and
// inline, so harness overhead stops masking the backend deltas the repo
// exists to measure.
//
//   workload::visit_tm(name, num_tvars, [&](auto& tm) {
//     result = workload::run_workload(tm, config);  // concrete overload
//   });
//
// The TM lives for the duration of the call; the lambda's return value (if
// any) is passed through. VisitTm.AgreesWithMakeTmOnEveryRecipe pins the
// two entry points to the same names.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "cm/managers.hpp"
#include "core/region.hpp"
#include "dstm/dstm.hpp"
#include "foctm/foctm.hpp"
#include "lock/coarse.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "norec/norec.hpp"

namespace oftm::workload {

template <typename T>
inline constexpr std::type_identity<T> backend{};

// Calls make(backend<T>, constructor arguments...) for the backend the
// recipe names and returns its result; throws std::invalid_argument on an
// unknown recipe. `region` sizes the heap of the region recipes (a zero
// capacity derives it from num_tvars); boxed recipes ignore it.
template <typename Make>
auto with_recipe(const std::string& name, std::size_t num_tvars,
                 const core::RegionOptions& region, Make&& make) {
  using CasFoctm =
      foctm::Foctm<core::HwPlatform, foc::CasFocPolicy<core::HwPlatform>>;
  using StrictFoctm =
      foctm::Foctm<core::HwPlatform, foc::StrictFocPolicy<core::HwPlatform>>;

  std::string base = name;
  std::string cm_name = "polite";
  bool has_cm = false;
  if (const auto colon = name.find(':'); colon != std::string::npos) {
    base = name.substr(0, colon);
    cm_name = name.substr(colon + 1);
    has_cm = true;
  }
  const bool is_dstm =
      base == "dstm" || base == "dstm-collapse" || base == "dstm-visible";
  // Only the DSTM family takes a contention manager; a ':<cm>' suffix on
  // any other backend is a recipe typo and must fail loudly, not silently
  // run the base backend.
  if (has_cm && !is_dstm) {
    throw std::invalid_argument("backend does not take a contention manager: " +
                                name);
  }

  if (is_dstm) {
    dstm::DstmOptions options;
    options.eager_collapse = (base == "dstm-collapse");
    options.visible_reads = (base == "dstm-visible");
    return make(backend<dstm::HwDstm>, num_tvars, cm::make_manager(cm_name),
                options);
  }
  if (base == "foctm" || base == "foctm-hinted") {
    return make(backend<CasFoctm>, num_tvars,
                foctm::FoctmOptions{.use_hints = base == "foctm-hinted"});
  }
  if (base == "foctm-strict") {
    return make(backend<StrictFoctm>, num_tvars,
                foctm::FoctmOptions{.use_hints = true});
  }
  if (base == "tl") return make(backend<lock::HwTl>, num_tvars);
  if (base == "tl2" || base == "tl2-ext") {
    return make(backend<lock::HwTl2>, num_tvars,
                lock::Tl2Options{.rv_extension = base == "tl2-ext"});
  }
  if (base == "coarse") return make(backend<lock::HwCoarse>, num_tvars);
  if (base == "norec" || base == "norec-bloom") {
    return make(backend<norec::HwNorec>, num_tvars,
                norec::NorecOptions{.bloom_reads = base == "norec-bloom"});
  }
  if (base == "tl2-region") {
    return make(backend<lock::Tl2Region>, num_tvars, lock::Tl2Options{},
                region);
  }
  if (base == "norec-region") {
    return make(backend<norec::NorecRegion>, num_tvars,
                norec::NorecOptions{}, region);
  }
  throw std::invalid_argument("unknown TM backend: " + name);
}

template <typename F>
auto visit_tm(const std::string& name, std::size_t num_tvars, F&& f) {
  // All recipes must agree on the return type; a generic lambda does.
  using R = std::invoke_result_t<F&, norec::HwNorec&>;
  return with_recipe(name, num_tvars, {},
                     [&f](auto type, auto&&... args) -> R {
                       typename decltype(type)::type tm(
                           std::forward<decltype(args)>(args)...);
                       return f(tm);
                     });
}

}  // namespace oftm::workload
