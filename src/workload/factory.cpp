#include "workload/factory.hpp"

#include <cstdio>
#include <stdexcept>

#include "workload/visit.hpp"

namespace oftm::workload {
namespace {

constexpr auto kMakeUnique = [](auto type, auto&&... args)
    -> std::unique_ptr<core::TransactionalMemory> {
  return std::make_unique<typename decltype(type)::type>(
      std::forward<decltype(args)>(args)...);
};

}  // namespace

std::unique_ptr<core::TransactionalMemory> make_tm(const std::string& name,
                                                   std::size_t num_tvars) {
  return with_recipe(name, num_tvars, {}, kMakeUnique);
}

std::unique_ptr<core::TransactionalMemory> make_tm_for_containers(
    const std::string& name, std::size_t words) {
  // Region recipes: the t-var word array, the containers' statics (≈ the
  // same words again), node churn, and slack for size-class rounding.
  core::RegionOptions region;
  region.capacity_bytes =
      3 * words * sizeof(core::Value) + (std::size_t{2} << 20);
  return with_recipe(name, words, region, kMakeUnique);
}

std::unique_ptr<core::TransactionalMemory> make_tm_for_containers_cli(
    const std::string& name, std::size_t words) {
  try {
    return make_tm_for_containers(name, words);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n\navailable backend recipes:\n",
                 e.what());
    for (const std::string& recipe : all_backends()) {
      std::fprintf(stderr, "  %s\n", recipe.c_str());
    }
    std::fprintf(stderr,
                 "(dstm-collapse/dstm-visible also accept a ':<cm>' "
                 "contention-manager suffix)\n");
    return nullptr;
  }
}

const std::vector<std::string>& default_backends() {
  static const std::vector<std::string> names = {
      "dstm", "tl", "tl2", "coarse", "norec", "foctm-hinted"};
  return names;
}

const std::vector<std::string>& all_backends() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v = {
        "dstm",         "dstm-collapse", "dstm-visible", "foctm",
        "foctm-hinted", "foctm-strict",  "tl",           "tl2",
        "tl2-ext",      "coarse",        "norec",        "norec-bloom",
        "tl2-region",   "norec-region",
    };
    for (const std::string& cm_name : cm::manager_names()) {
      if (cm_name == "polite") continue;  // the plain "dstm" default
      v.push_back("dstm:" + cm_name);
    }
    return v;
  }();
  return names;
}

}  // namespace oftm::workload
