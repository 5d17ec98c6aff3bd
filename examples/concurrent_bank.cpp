// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Multi-threaded bank: N worker threads move money between hot accounts
// with crossing lock orders.  The ConcurrentLockService parks waiters on
// condition variables; its detector thread runs the periodic H/W-TWBG
// pass every millisecond and aborts a victim per deadlock — workers just
// retry on Aborted.
//
//   $ ./concurrent_bank [threads] [transfers_per_thread]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "txn/concurrent_service.h"

int main(int argc, char** argv) {
  using namespace twbg;
  using enum lock::LockMode;

  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const int transfers = argc > 2 ? std::atoi(argv[2]) : 200;
  constexpr int kAccounts = 4;

  txn::ConcurrentServiceOptions options;
  options.detection_period = std::chrono::milliseconds(1);
  Result<std::unique_ptr<txn::ConcurrentLockService>> created =
      txn::ConcurrentLockService::Create(options);
  if (!created.ok()) {
    std::printf("service: %s\n", created.status().ToString().c_str());
    return 1;
  }
  txn::ConcurrentLockService& service = **created;
  std::vector<long> balances(kAccounts + 1, 10'000);
  std::mutex balances_mu;  // protects the application data only

  std::atomic<int> committed{0};
  std::atomic<int> retries{0};

  auto worker = [&](int id) {
    for (int i = 0; i < transfers; ++i) {
      // Crossing orders between two hot accounts force deadlocks.
      lock::ResourceId from = 1 + (id + i) % kAccounts;
      lock::ResourceId to = 1 + (id + i + 1) % kAccounts;
      if (id % 2 == 1) std::swap(from, to);
      for (int attempt = 1;; ++attempt) {
        // Back off after a deadlock abort, like any sane application —
        // immediate retries just re-create the same cycle.
        if (attempt > 1) {
          ++retries;
          std::this_thread::sleep_for(std::chrono::microseconds(
              50 * std::min(attempt, 16)));
        }
        lock::TransactionId t = *service.Begin();
        Status s1 = service.AcquireBlocking(t, from, kX);
        if (s1.IsAborted()) continue;
        std::this_thread::yield();  // widen the deadlock window for demo
        Status s2 = service.AcquireBlocking(t, to, kX);
        if (s2.IsAborted()) continue;
        {
          std::lock_guard<std::mutex> g(balances_mu);
          balances[from] -= 10;
          balances[to] += 10;
        }
        (void)service.Commit(t);
        ++committed;
        break;
      }
    }
  };

  std::printf("%d threads x %d transfers over %d hot accounts...\n", threads,
              transfers, kAccounts);
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(worker, i);
  for (std::thread& t : pool) t.join();

  long total = 0;
  for (int a = 1; a <= kAccounts; ++a) total += balances[a];
  std::printf("committed=%d deadlock_victims=%zu retries=%d\n",
              committed.load(), service.deadlock_victims(), retries.load());
  std::printf("balance total=%ld (expected %d) -> %s\n", total,
              kAccounts * 10'000,
              total == kAccounts * 10'000 ? "conserved" : "CORRUPTED");
  return total == kAccounts * 10'000 ? 0 : 1;
}
