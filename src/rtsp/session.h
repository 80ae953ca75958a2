// Server-side RTSP session state machine.
//
// Tracks the RFC 2326 session lifecycle (Init → Ready → Playing) and
// validates the method ordering RealServer enforces. The streaming engine
// (src/server) owns one Session per client.
#pragma once

#include <cstdint>
#include <string>

#include "rtsp/message.h"

namespace rv::rtsp {

enum class SessionState { kInit, kReady, kPlaying, kTornDown };

class Session {
 public:
  explicit Session(std::uint64_t id) : id_(id) {}

  std::uint64_t id() const { return id_; }
  std::string id_string() const;
  SessionState state() const { return state_; }

  // Returns true (and transitions) when `method` is legal in the current
  // state; illegal methods leave the state unchanged.
  bool apply(Method method);

 private:
  std::uint64_t id_;
  SessionState state_ = SessionState::kInit;
};

}  // namespace rv::rtsp
