#include "nbraft/vote_list.h"

#include <algorithm>

#include "common/logging.h"

namespace nbraft::raft {

void VoteList::AddTuple(storage::LogIndex index, storage::Term term,
                        net::NodeId leader, int required) {
  Tuple& t = tuples_[index];
  t.term = term;
  t.required = required;
  if (leader != net::kInvalidNode) t.strong.insert(leader);
}

bool VoteList::AddWeak(storage::LogIndex index, net::NodeId node) {
  Tuple* t = tuples_.Find(index);
  if (t == nullptr) return false;  // Already committed or cleaned.
  t->weak.insert(node);
  if (t->weak_notified) return false;
  // Weak ∪ strong: a node may appear in both after its window flushed.
  if (static_cast<int>(t->strong.UnionSize(t->weak)) >= t->required) {
    t->weak_notified = true;
    return true;
  }
  return false;
}

std::vector<storage::LogIndex> VoteList::AddStrongUpTo(
    storage::LogIndex last_index, net::NodeId node,
    storage::Term current_term) {
  storage::LogIndex commit_up_to = -1;
  if (!tuples_.empty()) {
    const storage::LogIndex end = std::min(last_index, tuples_.back_index());
    for (storage::LogIndex index = tuples_.front_index(); index <= end;
         ++index) {
      Tuple* tuple = tuples_.Find(index);
      if (tuple == nullptr) continue;
      tuple->strong.insert(node);
      if (tuple->term == current_term && StrongSatisfied(*tuple)) {
        commit_up_to = index;
      }
    }
  }
  return PopCommittable(commit_up_to, current_term);
}

std::vector<storage::LogIndex> VoteList::AddStrongAt(
    storage::LogIndex index, net::NodeId node, storage::Term current_term) {
  Tuple* tuple = tuples_.Find(index);
  if (tuple == nullptr) return {};  // Already committed.
  tuple->strong.insert(node);
  if (tuple->term != current_term || !StrongSatisfied(*tuple)) return {};
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
    const storage::LogIndex index = tuples_.front_index();
    const Tuple& tuple = *tuples_.Find(index);
    if (index > up_to) break;
    if (tuple.term == current_term && !StrongSatisfied(tuple)) {
      break;
    }
    committed.push_back(index);
    tuples_.PopFront();
  }
  return committed;
}

void VoteList::ForEach(
    const std::function<void(storage::LogIndex, Tuple*)>& fn) {
  tuples_.ForEach([&](storage::LogIndex index, Tuple& tuple) {
    fn(index, &tuple);
  });
}

std::vector<storage::LogIndex> VoteList::CollectCommittable(
    storage::Term current_term) {
  storage::LogIndex commit_up_to = -1;
  tuples_.ForEach([&](storage::LogIndex index, const Tuple& tuple) {
    if (tuple.term == current_term && StrongSatisfied(tuple)) {
      commit_up_to = index;
    }
  });
  return PopCommittable(commit_up_to, current_term);
}

}  // namespace nbraft::raft
