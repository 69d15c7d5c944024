// Receiver-side state for kMpiBatch deliveries: duplicate suppression and
// acknowledgement coverage.
//
// Batches are identified by (origin, seq) — see proto::MpiBatch. Links can
// replay a batch (fault injection duplicates intra-site frames; retransmit
// resends after a lost ack), and a batch fans out to many mailboxes, so the
// receiver must treat a retransmission as ONE delivery. The dedup window is
// the at-most-once half of the data plane; BatchAckTracker feeds the
// kMpiBatchAck replies that make the sender's retransmit loop (the
// at-least-once half) terminate.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

namespace pg::proxy {

/// Per-origin sliding window of recently seen batch sequence numbers.
class BatchDedupWindow {
 public:
  explicit BatchDedupWindow(std::size_t window = 256) : window_(window) {}

  /// Records (origin, seq); returns true when it was already recorded —
  /// i.e. the batch is a duplicate and must be dropped whole.
  bool seen_before(const std::string& origin, std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mutex_);
    Window& w = windows_[origin];
    if (w.seen.count(seq) != 0) return true;
    w.seen.insert(seq);
    w.order.push_back(seq);
    while (w.order.size() > window_) {
      w.seen.erase(w.order.front());
      w.order.pop_front();
    }
    return false;
  }

 private:
  struct Window {
    std::unordered_set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;
  };

  std::size_t window_;
  std::mutex mutex_;
  std::map<std::string, Window> windows_;
};

/// What a receiver has covered for one origin: every seq in [1, cumulative]
/// plus the out-of-order seqs in `selective`. Mirrors proto::MpiBatchAck.
struct AckCoverage {
  std::uint64_t cumulative = 0;
  std::vector<std::uint64_t> selective;
};

/// Per-origin delivery coverage, advanced on every kMpiBatch arrival
/// (duplicates included — re-acking a duplicate is how a lost ack heals).
/// Senders number batches from 1 per link, so coverage is a cumulative
/// point plus a (bounded) set of out-of-order arrivals above it.
class BatchAckTracker {
 public:
  /// Keeps at most `max_selective` out-of-order seqs per origin; older gaps
  /// below a trimmed seq are healed by sender retransmission.
  explicit BatchAckTracker(std::size_t max_selective = 64)
      : max_selective_(max_selective) {}

  /// Records seq for origin and returns the updated coverage to ack.
  AckCoverage record(const std::string& origin, std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mutex_);
    State& s = states_[origin];
    if (seq > s.cumulative) s.above.insert(seq);
    while (s.above.count(s.cumulative + 1) != 0) {
      s.above.erase(s.cumulative + 1);
      ++s.cumulative;
    }
    while (s.above.size() > max_selective_) s.above.erase(s.above.begin());
    AckCoverage cov;
    cov.cumulative = s.cumulative;
    cov.selective.assign(s.above.begin(), s.above.end());
    return cov;
  }

 private:
  struct State {
    std::uint64_t cumulative = 0;
    std::set<std::uint64_t> above;
  };

  std::size_t max_selective_;
  std::mutex mutex_;
  std::map<std::string, State> states_;
};

}  // namespace pg::proxy
