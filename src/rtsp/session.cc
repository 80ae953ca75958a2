#include "rtsp/session.h"

#include <sstream>

namespace rv::rtsp {

std::string Session::id_string() const {
  std::ostringstream os;
  os << std::hex << id_;
  return os.str();
}

bool Session::apply(Method method) {
  switch (method) {
    case Method::kOptions:
    case Method::kDescribe:
    case Method::kSetParameter:
      // Stateless methods: legal anywhere before teardown.
      return state_ != SessionState::kTornDown;
    case Method::kSetup:
      if (state_ != SessionState::kInit) return false;
      state_ = SessionState::kReady;
      return true;
    case Method::kPlay:
      if (state_ != SessionState::kReady && state_ != SessionState::kPlaying) {
        return false;
      }
      state_ = SessionState::kPlaying;
      return true;
    case Method::kPause:
      if (state_ != SessionState::kPlaying) return false;
      state_ = SessionState::kReady;
      return true;
    case Method::kTeardown:
      if (state_ == SessionState::kTornDown) return false;
      state_ = SessionState::kTornDown;
      return true;
  }
  return false;
}

}  // namespace rv::rtsp
