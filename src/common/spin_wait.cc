#include "common/spin_wait.h"

#include <sched.h>

#include <atomic>

#include "common/schedule_point.h"

namespace dear::spin {
namespace {

std::atomic<std::size_t> g_waiters{0};

/// Registers its thread on construction and unregisters at thread exit.
/// Lives in this non-template function's thread_local, so each thread
/// counts once no matter how many primitive types it waits on.
struct WaiterRegistration {
  WaiterRegistration() noexcept {
    g_waiters.fetch_add(1, std::memory_order_relaxed);
  }
  ~WaiterRegistration() { g_waiters.fetch_sub(1, std::memory_order_relaxed); }
  WaiterRegistration(const WaiterRegistration&) = delete;
  WaiterRegistration& operator=(const WaiterRegistration&) = delete;
};

std::size_t ReadAffinityCpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

}  // namespace

std::size_t UsableCpus() noexcept {
  static const std::size_t cpus = ReadAffinityCpus();
  return cpus;
}

std::size_t Waiters() noexcept {
  return g_waiters.load(std::memory_order_relaxed);
}

bool SpinAllowed() noexcept {
  thread_local WaiterRegistration registration;
  if (schedpoint::ActiveHook() != nullptr) return false;
  return MaySpin(Waiters(), UsableCpus());
}

}  // namespace dear::spin
