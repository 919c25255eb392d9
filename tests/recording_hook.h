// A schedpoint::Hook that records every call in order, for tests that pin
// the exact hook sequence the blocking primitives emit. Schedlab's
// schedule fingerprints are built from this sequence, so a primitive may
// change how it waits but never which hook calls it makes.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/schedule_point.h"

namespace dear::testenv {

class RecordingHook : public schedpoint::Hook {
 public:
  void OnWorkerBegin(const char* role, int id) override {
    Add(std::string("begin:") + role + ":" + std::to_string(id));
  }
  void OnWorkerEnd() override { Add("end"); }
  void OnPoint(schedpoint::Site site) override {
    Add(std::string("point:") + schedpoint::SiteName(site));
  }
  void OnBlockEnter(schedpoint::Site site) override {
    Add(std::string("enter:") + schedpoint::SiteName(site));
  }
  void OnBlockExit(schedpoint::Site site) override {
    Add(std::string("exit:") + schedpoint::SiteName(site));
  }

  std::vector<std::string> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  void Add(std::string event) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
  }

  mutable std::mutex mutex_;
  std::vector<std::string> events_;
};

/// Installs `hook` for the scope's lifetime. Construct and destroy only
/// while no instrumented thread is running (schedpoint::InstallHook).
class ScopedHook {
 public:
  explicit ScopedHook(schedpoint::Hook* hook) { schedpoint::InstallHook(hook); }
  ~ScopedHook() { schedpoint::InstallHook(nullptr); }
  ScopedHook(const ScopedHook&) = delete;
  ScopedHook& operator=(const ScopedHook&) = delete;
};

}  // namespace dear::testenv
