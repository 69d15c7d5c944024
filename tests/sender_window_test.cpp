// Unit tests for the reliable data plane's sender-side state (SenderWindow:
// tracking, ack release, RTO backoff, AIMD budget) and the receiver-side
// ack coverage tracker (BatchAckTracker: cumulative + selective acks).

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <vector>

#include "proxy/batch_window.hpp"
#include "proxy/sender_window.hpp"

namespace pg::proxy {
namespace {

Bytes wire_of(std::size_t n) { return Bytes(n, 0xab); }

SenderWindowConfig small_config() {
  SenderWindowConfig config;
  config.rto_initial_micros = 1000;
  config.rto_max_micros = 64 * 1000;
  config.budget_floor_bytes = 100;
  config.budget_max_bytes = 1000;
  return config;
}

TEST(SenderWindow, SeqsAreContiguousFromOne) {
  SenderWindow window(small_config());
  EXPECT_EQ(window.next_seq(), 1u);
  EXPECT_EQ(window.next_seq(), 2u);
  EXPECT_EQ(window.next_seq(), 3u);
}

TEST(SenderWindow, ConcurrentSeqsAreDistinct) {
  // Rank threads of a node agent, and the reactor I/O threads and job
  // workers of a proxy, draw seqs from one link's window at once. A seq handed out twice makes
  // the receiver drop the second batch as a duplicate: a lost message.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  SenderWindow window(small_config());
  std::vector<std::vector<std::uint64_t>> seqs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&window, &out = seqs[t]] {
      out.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) out.push_back(window.next_seq());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::unordered_set<std::uint64_t> distinct;
  for (const auto& per_thread : seqs)
    distinct.insert(per_thread.begin(), per_thread.end());
  EXPECT_EQ(distinct.size(), std::size_t{kThreads} * kPerThread);
  EXPECT_EQ(window.next_seq(), std::uint64_t{kThreads} * kPerThread + 1);
}

TEST(SenderWindow, CumulativeAckReleasesPrefix) {
  SenderWindow window(small_config());
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    window.track(window.next_seq(), wire_of(10), {{7, 1}}, 1000);
  }
  EXPECT_EQ(window.inflight_batches(), 3u);
  EXPECT_EQ(window.inflight_bytes(), 30u);

  const AckOutcome out = window.on_ack(2, {}, 1500);
  EXPECT_EQ(out.released, 2u);
  EXPECT_EQ(out.released_bytes, 20u);
  EXPECT_EQ(window.inflight_batches(), 1u);
  EXPECT_EQ(window.inflight_bytes(), 10u);
  // Both releases were clean sends, so both sampled RTT (500us each).
  ASSERT_EQ(out.rtt_samples.size(), 2u);
  EXPECT_EQ(out.rtt_samples[0], 500u);
  EXPECT_EQ(window.srtt_micros(), 500u);
}

TEST(SenderWindow, SelectiveAckReleasesOutOfOrderSeq) {
  SenderWindow window(small_config());
  for (int i = 0; i < 3; ++i)
    window.track(window.next_seq(), wire_of(10), {{7, 1}}, 1000);
  // Receiver saw 1 and 3 but not 2: cumulative 1, selective {3}.
  const AckOutcome out = window.on_ack(1, {3}, 1200);
  EXPECT_EQ(out.released, 2u);
  EXPECT_EQ(window.inflight_batches(), 1u);
  // Seq 2 is still in flight and retransmittable.
  const std::vector<Retransmit> due = window.take_due(1000 + 2000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 2u);
}

TEST(SenderWindow, DuplicateAckIsIdempotent) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 1000);
  EXPECT_EQ(window.on_ack(1, {}, 1100).released, 1u);
  EXPECT_EQ(window.on_ack(1, {}, 1200).released, 0u);
  EXPECT_EQ(window.inflight_bytes(), 0u);
}

TEST(SenderWindow, TakeDueArmsExponentialBackoff) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  // First deadline is at rto_initial.
  EXPECT_EQ(window.next_deadline(), 1000u);
  EXPECT_TRUE(window.take_due(500).empty());

  std::vector<Retransmit> due = window.take_due(1000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempt, 1);
  // Backed off: next deadline is now + 2*rto.
  EXPECT_EQ(window.next_deadline(), 1000 + 2000u);

  due = window.take_due(3000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempt, 2);
  EXPECT_EQ(window.next_deadline(), 3000 + 4000u);
}

TEST(SenderWindow, BackoffIsCappedAtRtoMax) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  std::uint64_t now = 0;
  for (int i = 0; i < 20; ++i) {
    now = window.next_deadline();
    ASSERT_FALSE(window.take_due(now).empty());
  }
  EXPECT_LE(window.next_deadline() - now, 64 * 1000u);
}

TEST(SenderWindow, KarnRuleSkipsRetransmittedRttSamples) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  ASSERT_EQ(window.take_due(1000).size(), 1u);  // now retransmitted once
  const AckOutcome out = window.on_ack(1, {}, 1500);
  EXPECT_EQ(out.released, 1u);
  EXPECT_TRUE(out.rtt_samples.empty());  // ambiguous RTT not sampled
  EXPECT_EQ(window.srtt_micros(), 0u);
}

TEST(SenderWindow, FirstDeadlineAllowsForAckDelay) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0, 300);
  EXPECT_EQ(window.next_deadline(), 1000u + 300u);
  // The resent copy is acked at once: backoff adds no allowance.
  ASSERT_EQ(window.take_due(1300).size(), 1u);
  EXPECT_EQ(window.next_deadline(), 1300u + 2000u);
}

TEST(SenderWindow, AckDelayIsTakenOffRttSample) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 100);
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 100);
  // Acked at 1100 after being held 300us: the path took 700us.
  AckOutcome out = window.on_ack(1, {}, 1100, 300);
  ASSERT_EQ(out.rtt_samples.size(), 1u);
  EXPECT_EQ(out.rtt_samples[0], 700u);
  EXPECT_EQ(window.srtt_micros(), 700u);
  // A delay longer than the whole sample clamps it at 0.
  out = window.on_ack(2, {}, 1200, 5000);
  ASSERT_EQ(out.rtt_samples.size(), 1u);
  EXPECT_EQ(out.rtt_samples[0], 0u);
}

TEST(SenderWindow, AimdBudgetHalvesOnTimeoutAndRegrows) {
  SenderWindow window(small_config());
  EXPECT_EQ(window.budget_bytes(), 1000u);

  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  ASSERT_FALSE(window.take_due(1000).empty());
  EXPECT_EQ(window.budget_bytes(), 500u);  // multiplicative decrease

  // Clean release grows it additively (step = max(1024, max/64) clamped to
  // the configured max).
  (void)window.on_ack(1, {}, 1500);
  EXPECT_GT(window.budget_bytes(), 500u);
  EXPECT_LE(window.budget_bytes(), 1000u);
}

TEST(SenderWindow, BudgetNeverDropsBelowFloor) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  std::uint64_t now = 0;
  for (int i = 0; i < 10; ++i) {
    now = window.next_deadline();
    ASSERT_FALSE(window.take_due(now).empty());
  }
  EXPECT_EQ(window.budget_bytes(), 100u);
}

TEST(SenderWindow, CanSendAdmitsOneBatchWhenIdle) {
  SenderWindow window(small_config());
  // Idle link: even an oversized batch is admitted (never wedged).
  EXPECT_TRUE(window.can_send(100 * 1000));
  window.track(window.next_seq(), wire_of(900), {{7, 1}}, 0);
  EXPECT_TRUE(window.can_send(100));   // 900 + 100 <= 1000
  EXPECT_FALSE(window.can_send(200));  // 900 + 200 > 1000
}

TEST(SenderWindow, DropAppFreesWhollyOwnedEntriesOnly) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 2}}, 0);        // app 7
  window.track(window.next_seq(), wire_of(20), {{7, 1}, {8, 1}}, 0);  // shared
  const SenderWindow::DropOutcome out = window.drop_app(7);
  EXPECT_EQ(out.frames, 3u);
  EXPECT_EQ(out.bytes, 10u);  // only the wholly-owned entry is freed
  EXPECT_EQ(window.inflight_batches(), 1u);
  EXPECT_EQ(window.inflight_bytes(), 20u);
  // The shared entry still retransmits for app 8's sake.
  EXPECT_EQ(window.take_due(1000).size(), 1u);
}

TEST(BatchAckTracker, CumulativeAdvancesThroughContiguousSeqs) {
  BatchAckTracker tracker;
  EXPECT_EQ(tracker.record("s", 1).cumulative, 1u);
  EXPECT_EQ(tracker.record("s", 2).cumulative, 2u);
  const AckCoverage cov = tracker.record("s", 3);
  EXPECT_EQ(cov.cumulative, 3u);
  EXPECT_TRUE(cov.selective.empty());
}

TEST(BatchAckTracker, GapHoldsCumulativeAndReportsSelective) {
  BatchAckTracker tracker;
  (void)tracker.record("s", 1);
  AckCoverage cov = tracker.record("s", 3);  // 2 missing
  EXPECT_EQ(cov.cumulative, 1u);
  ASSERT_EQ(cov.selective.size(), 1u);
  EXPECT_EQ(cov.selective[0], 3u);
  // The gap filling advances cumulative over the parked seq.
  cov = tracker.record("s", 2);
  EXPECT_EQ(cov.cumulative, 3u);
  EXPECT_TRUE(cov.selective.empty());
}

TEST(BatchAckTracker, DuplicateRecordIsIdempotent) {
  BatchAckTracker tracker;
  (void)tracker.record("s", 1);
  const AckCoverage cov = tracker.record("s", 1);
  EXPECT_EQ(cov.cumulative, 1u);
  EXPECT_TRUE(cov.selective.empty());
}

TEST(BatchAckTracker, OriginsAreIndependent) {
  BatchAckTracker tracker;
  (void)tracker.record("a", 1);
  EXPECT_EQ(tracker.record("b", 1).cumulative, 1u);
  EXPECT_EQ(tracker.record("a", 2).cumulative, 2u);
}

TEST(BatchAckTracker, SelectiveListIsBounded) {
  BatchAckTracker tracker(/*max_selective=*/4);
  // Seqs 10..20 with 1..9 missing: selective can't grow unbounded.
  AckCoverage cov;
  for (std::uint64_t seq = 10; seq <= 20; ++seq) cov = tracker.record("s", seq);
  EXPECT_EQ(cov.cumulative, 0u);
  EXPECT_LE(cov.selective.size(), 4u);
}

}  // namespace
}  // namespace pg::proxy
