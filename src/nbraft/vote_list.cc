#include "nbraft/vote_list.h"

#include "common/logging.h"

namespace nbraft::raft {

void VoteList::AddTuple(storage::LogIndex index, storage::Term term,
                        net::NodeId leader, int required) {
  Tuple& t = tuples_[index];
  t.term = term;
  t.required = required;
  if (leader != net::kInvalidNode) t.strong.insert(leader);
}

const VoteList::Tuple* VoteList::Find(storage::LogIndex index) const {
  const auto it = tuples_.find(index);
  return it == tuples_.end() ? nullptr : &it->second;
}

bool VoteList::AddWeak(storage::LogIndex index, net::NodeId node) {
  const auto it = tuples_.find(index);
  if (it == tuples_.end()) return false;  // Already committed or cleaned.
  Tuple& t = it->second;
  t.weak.insert(node);
  if (t.weak_notified) return false;
  // Weak ∪ strong: a node may appear in both after its window flushed.
  std::set<net::NodeId> combined = t.strong;
  combined.insert(t.weak.begin(), t.weak.end());
  if (static_cast<int>(combined.size()) >= t.required) {
    t.weak_notified = true;
    return true;
  }
  return false;
}

std::vector<storage::LogIndex> VoteList::AddStrongUpTo(
    storage::LogIndex last_index, net::NodeId node,
    storage::Term current_term) {
  storage::LogIndex commit_up_to = -1;
  for (auto& [index, tuple] : tuples_) {
    if (index > last_index) break;
    tuple.strong.insert(node);
    if (tuple.term == current_term && StrongSatisfied(tuple)) {
      commit_up_to = index;
    }
  }
  return PopCommittable(commit_up_to, current_term);
}

std::vector<storage::LogIndex> VoteList::AddStrongAt(
    storage::LogIndex index, net::NodeId node, storage::Term current_term) {
  const auto it = tuples_.find(index);
  if (it == tuples_.end()) return {};  // Already committed.
  Tuple& tuple = it->second;
  tuple.strong.insert(node);
  if (tuple.term != current_term || !StrongSatisfied(tuple)) return {};
  return PopCommittable(index, current_term);
}

std::vector<storage::LogIndex> VoteList::PopCommittable(
    storage::LogIndex up_to, storage::Term current_term) {
  // Pop committed tuples in order. An old-term tuple below a committed
  // current-term one commits transitively (Raft Sec. 5.4.2); a
  // current-term tuple must meet its own required count — with mixed
  // requirements (CRaft mode switches) a fragment entry may need more
  // holders than the plain entry that follows it.
  std::vector<storage::LogIndex> committed;
  while (!tuples_.empty()) {
    const auto& [index, tuple] = *tuples_.begin();
    if (index > up_to) break;
    if (tuple.term == current_term && !StrongSatisfied(tuple)) {
      break;
    }
    committed.push_back(index);
    tuples_.erase(tuples_.begin());
  }
  return committed;
}

void VoteList::ForEach(
    const std::function<void(storage::LogIndex, Tuple*)>& fn) {
  for (auto& [index, tuple] : tuples_) fn(index, &tuple);
}

std::vector<storage::LogIndex> VoteList::CollectCommittable(
    storage::Term current_term) {
  storage::LogIndex commit_up_to = -1;
  for (const auto& [index, tuple] : tuples_) {
    if (tuple.term == current_term && StrongSatisfied(tuple)) {
      commit_up_to = index;
    }
  }
  return PopCommittable(commit_up_to, current_term);
}

}  // namespace nbraft::raft
