// Quickstart: the smallest realistic OFTM program — concurrent bank
// transfers with the `atomically` retry layer.
//
//   ./quickstart [backend] [threads]
//
// backend: dstm (default), dstm:karma, foctm-hinted, tl, tl2, coarse, ...
// (see workload/factory.hpp for the full list).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/atomically.hpp"
#include "core/tvar.hpp"
#include "runtime/xorshift.hpp"
#include "workload/factory.hpp"

int main(int argc, char** argv) {
  const std::string backend = argc > 1 ? argv[1] : "dstm";
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;
  constexpr std::size_t kAccounts = 64;
  constexpr oftm::core::Value kInitial = 1000;
  constexpr int kTransfersPerThread = 20000;

  // 1. Create a TM instance with a fixed t-variable space. An unknown
  //    recipe prints the recipe list and exits 2.
  auto tm = oftm::workload::make_tm_for_containers_cli(backend, kAccounts);
  if (!tm) return 2;

  // 2. Seed the accounts in one transaction.
  oftm::core::atomically(*tm, [&](oftm::core::TxView& tx) {
    for (oftm::core::TVarId a = 0; a < kAccounts; ++a) {
      tx.write(a, kInitial);
    }
  });

  // 3. Hammer it with concurrent transfers. `atomically` retries
  //    forcefully-aborted transactions transparently.
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      oftm::runtime::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const auto from =
            static_cast<oftm::core::TVarId>(rng.next_range(kAccounts));
        auto to = static_cast<oftm::core::TVarId>(rng.next_range(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        const oftm::core::Value amount = rng.next_range(5) + 1;
        oftm::core::atomically(*tm, [&](oftm::core::TxView& tx) {
          const auto balance = tx.read(from);
          if (balance < amount) return;  // commit the no-op
          tx.write(from, balance - amount);
          tx.write(to, tx.read(to) + amount);
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  // 4. The invariant the transactions preserve: total money is constant.
  oftm::core::Value total = 0;
  for (oftm::core::TVarId a = 0; a < kAccounts; ++a) {
    total += tm->read_quiescent(a);
  }
  const auto stats = tm->stats();
  std::printf("backend: %s, threads: %d\n", tm->name().c_str(), threads);
  std::printf("total balance: %llu (expected %llu) -> %s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(kInitial * kAccounts),
              total == kInitial * kAccounts ? "OK" : "CORRUPTED");
  std::printf("stats: %s\n", stats.to_string().c_str());
  return total == kInitial * kAccounts ? 0 : 1;
}
