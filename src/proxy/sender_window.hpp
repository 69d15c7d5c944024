// Sender-side state for the reliable MPI data plane: the in-flight window,
// RTO/backoff retransmission, RTT estimation and the AIMD flush budget.
//
// One SenderWindow per outgoing data link (proxy -> peer site, proxy ->
// node, node agent -> proxy). Each transmitted kMpiBatch stays tracked —
// wire bytes and all — until a kMpiBatchAck covers its seq; uncovered
// batches are resent when their deadline passes, with exponential backoff.
// The window also drives congestion-aware flushing: a per-link byte budget
// grows additively on clean acks and halves on a retransmission timeout,
// and the batcher defers draining while in-flight bytes exceed it.
//
// State machine per batch (docs/PROTOCOL.md):
//   tracked --ack covers seq--> released
//   tracked --deadline passes--> retransmitted (backoff, re-armed)
//   tracked --every owning app closed--> dropped
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace pg::proxy {

/// Tuning for one link's reliability state; a proxy derives it from its
/// ProxyConfig and the proxy's node agents mirror the proxy's values.
struct SenderWindowConfig {
  std::uint64_t rto_initial_micros = 50'000;
  std::uint64_t rto_max_micros = 2'000'000;
  /// AIMD flush-budget bounds: the budget starts at and never grows past
  /// the ceiling, and never shrinks below the floor so a lossy link still
  /// makes progress one small chunk at a time.
  std::size_t budget_floor_bytes = 4096;
  std::size_t budget_max_bytes = 1024 * 1024;
};

/// A batch due for retransmission: resend `wire` verbatim (same seq, so the
/// receiver's dedup window absorbs the copy if the original did arrive).
struct Retransmit {
  std::uint64_t seq = 0;
  Bytes wire;
  int attempt = 0;  // 1 for the first retransmission
};

/// What an ack released: count/bytes freed plus RTT samples (micros) taken
/// from batches that were never retransmitted (Karn's algorithm).
struct AckOutcome {
  std::size_t released = 0;
  std::size_t released_bytes = 0;
  std::vector<std::uint64_t> rtt_samples;
};

class SenderWindow {
 public:
  explicit SenderWindow(SenderWindowConfig config)
      : config_(config), budget_(config.budget_max_bytes) {}

  /// Next batch seq for this link, starting at 1 (the ack tracker's
  /// cumulative point starts at 0 == "nothing received"). Safe to call from
  /// many threads: two batches sharing a seq would be deduplicated into one
  /// delivery at the receiver.
  std::uint64_t next_seq() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_seq_;
  }

  /// Tracks a transmitted batch. `frames_per_app` maps app_id -> frame
  /// count, for accounting when apps close under the batch. The first
  /// deadline allows for `max_ack_delay_micros`, the longest the receiver
  /// may hold the batch's ack, as QUIC's probe timeout does (RFC 9002
  /// §6.2.1); a resent copy is acked at once, so backoff adds none.
  /// Returns the batch's retransmit deadline.
  std::uint64_t track(std::uint64_t seq, Bytes wire,
             std::map<std::uint64_t, std::size_t> frames_per_app,
             std::uint64_t now_micros, std::uint64_t max_ack_delay_micros = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry e;
    e.bytes = wire.size();
    e.wire = std::move(wire);
    e.frames_per_app = std::move(frames_per_app);
    e.sent_micros = now_micros;
    e.deadline_micros = now_micros + rto_locked() + max_ack_delay_micros;
    const std::uint64_t deadline = e.deadline_micros;
    inflight_bytes_ += e.bytes;
    entries_.emplace(seq, std::move(e));
    return deadline;
  }

  /// Applies ack coverage: releases every entry with seq <= cumulative or
  /// listed in selective, samples RTT from clean (never-retransmitted)
  /// releases and grows the flush budget additively per released batch.
  /// `ack_delay_micros` is how long the receiver held the ack; it is taken
  /// off each sample (clamped at 0) so delayed acks do not inflate srtt.
  AckOutcome on_ack(std::uint64_t cumulative,
                    const std::vector<std::uint64_t>& selective,
                    std::uint64_t now_micros,
                    std::uint64_t ack_delay_micros = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    AckOutcome out;
    auto release = [&](std::map<std::uint64_t, Entry>::iterator it) {
      if (it->second.retransmits == 0 &&
          now_micros >= it->second.sent_micros) {
        const std::uint64_t rtt = now_micros - it->second.sent_micros;
        out.rtt_samples.push_back(
            rtt > ack_delay_micros ? rtt - ack_delay_micros : 0);
      }
      out.released_bytes += it->second.bytes;
      inflight_bytes_ -= it->second.bytes;
      ++out.released;
      return entries_.erase(it);
    };
    for (auto it = entries_.begin();
         it != entries_.end() && it->first <= cumulative;)
      it = release(it);
    for (const std::uint64_t seq : selective) {
      auto it = entries_.find(seq);
      if (it != entries_.end()) release(it);
    }
    for (const std::uint64_t rtt : out.rtt_samples) sample_rtt_locked(rtt);
    // Additive increase: one budget step per batch the link got through.
    budget_ = std::min(config_.budget_max_bytes,
                       budget_ + out.released * budget_step());
    return out;
  }

  /// Collects batches whose deadline passed, arming each with an
  /// exponentially backed-off next deadline. A non-empty result halves the
  /// flush budget once (multiplicative decrease — a burst of simultaneous
  /// expiries is one congestion event, not many).
  std::vector<Retransmit> take_due(std::uint64_t now_micros) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Retransmit> due;
    for (auto& [seq, e] : entries_) {
      if (e.deadline_micros > now_micros) continue;
      ++e.retransmits;
      const std::uint64_t backoff = std::min(
          config_.rto_max_micros, rto_locked() << std::min(e.retransmits, 16));
      e.deadline_micros = now_micros + backoff;
      due.push_back({seq, e.wire, e.retransmits});
    }
    if (!due.empty())
      budget_ = std::max(config_.budget_floor_bytes, budget_ / 2);
    return due;
  }

  /// Earliest retransmit deadline, or 0 when nothing is in flight.
  std::uint64_t next_deadline() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t earliest = 0;
    for (const auto& [seq, e] : entries_)
      if (earliest == 0 || e.deadline_micros < earliest)
        earliest = e.deadline_micros;
    return earliest;
  }

  /// What drop_app() removed: the app's frame count, and the wire bytes of
  /// entries freed outright (an entry still carrying another live app's
  /// frames stays in flight, so its bytes are not freed).
  struct DropOutcome {
    std::size_t frames = 0;
    std::size_t bytes = 0;
  };

  /// Forgets an app's frames. Entries whose every owning app is gone are
  /// dropped outright (their retransmission would deliver to nobody).
  DropOutcome drop_app(std::uint64_t app_id) {
    std::lock_guard<std::mutex> lock(mutex_);
    DropOutcome out;
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto frames = it->second.frames_per_app.find(app_id);
      if (frames == it->second.frames_per_app.end()) {
        ++it;
        continue;
      }
      out.frames += frames->second;
      it->second.frames_per_app.erase(frames);
      if (it->second.frames_per_app.empty()) {
        out.bytes += it->second.bytes;
        inflight_bytes_ -= it->second.bytes;
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  /// True when the link can absorb `extra_bytes` more without blowing the
  /// congestion budget. The check admits at least one batch when idle so a
  /// single oversized batch is never wedged.
  bool can_send(std::size_t extra_bytes) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.empty()) return true;
    return inflight_bytes_ + extra_bytes <= budget_;
  }

  /// Current AIMD chunk budget: the batcher carves chunks no larger than
  /// this (clamped under the configured maximum elsewhere).
  std::size_t budget_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_;
  }

  std::size_t inflight_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return inflight_bytes_;
  }

  std::size_t inflight_batches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Smoothed ack RTT (micros); 0 before the first sample.
  std::uint64_t srtt_micros() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return srtt_;
  }

 private:
  struct Entry {
    Bytes wire;
    std::size_t bytes = 0;
    std::map<std::uint64_t, std::size_t> frames_per_app;
    std::uint64_t sent_micros = 0;
    std::uint64_t deadline_micros = 0;
    int retransmits = 0;
  };

  // Jacobson/Karels: srtt/rttvar EWMA, RTO = srtt + 4*rttvar, clamped.
  void sample_rtt_locked(std::uint64_t rtt) {
    if (srtt_ == 0) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
    } else {
      const std::uint64_t delta = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
      rttvar_ = (3 * rttvar_ + delta) / 4;
      srtt_ = (7 * srtt_ + rtt) / 8;
    }
  }

  std::uint64_t rto_locked() const {
    if (srtt_ == 0) return config_.rto_initial_micros;
    return std::clamp(srtt_ + 4 * rttvar_, config_.rto_initial_micros / 4 + 1,
                      config_.rto_max_micros);
  }

  std::size_t budget_step() const {
    return std::max<std::size_t>(1024, config_.budget_max_bytes / 64);
  }

  SenderWindowConfig config_;
  mutable std::mutex mutex_;
  std::uint64_t last_seq_ = 0;
  std::map<std::uint64_t, Entry> entries_;  // ordered: cumulative release
  std::size_t inflight_bytes_ = 0;
  std::size_t budget_;
  std::uint64_t srtt_ = 0;
  std::uint64_t rttvar_ = 0;
};

}  // namespace pg::proxy
