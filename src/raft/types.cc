#include "raft/types.h"

namespace nbraft::raft {

std::string_view RoleName(Role role) {
  switch (role) {
    case Role::kFollower:
      return "follower";
    case Role::kCandidate:
      return "candidate";
    case Role::kLeader:
      return "leader";
    case Role::kLearner:
      return "learner";
  }
  return "?";
}

std::string_view AcceptStateName(AcceptState state) {
  switch (state) {
    case AcceptState::kStrongAccept:
      return "STRONG_ACCEPT";
    case AcceptState::kWeakAccept:
      return "WEAK_ACCEPT";
    case AcceptState::kLogMismatch:
      return "LOG_MISMATCH";
    case AcceptState::kLeaderChanged:
      return "LEADER_CHANGED";
    case AcceptState::kNotLeader:
      return "NOT_LEADER";
  }
  return "?";
}

std::string_view ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kRaft:
      return "Raft";
    case Protocol::kNbRaft:
      return "NB-Raft";
    case Protocol::kCRaft:
      return "CRaft";
    case Protocol::kNbCRaft:
      return "NB-Raft+CRaft";
    case Protocol::kECRaft:
      return "ECRaft";
    case Protocol::kKRaft:
      return "KRaft";
    case Protocol::kVGRaft:
      return "VGRaft";
  }
  return "?";
}

RaftOptions OptionsForProtocol(Protocol protocol, int window_size) {
  RaftOptions options;
  options.protocol = protocol;
  if (protocol == Protocol::kNbRaft || protocol == Protocol::kNbCRaft) {
    options.window_size = window_size;
  }
  return options;
}

}  // namespace nbraft::raft
