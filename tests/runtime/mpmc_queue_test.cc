#include "runtime/mpmc_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace schemble {
namespace {

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(MpmcQueueTest, TryOpsRespectBounds) {
  MpmcQueue<int> queue(2);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  EXPECT_EQ(queue.TryPop(), 1);
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.TryPop(), 2);
  EXPECT_EQ(queue.TryPop(), 3);
}

TEST(MpmcQueueTest, WrapsAroundRing) {
  MpmcQueue<int> queue(3);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(queue.Push(round));
    EXPECT_TRUE(queue.Push(round + 100));
    EXPECT_EQ(queue.Pop(), round);
    EXPECT_EQ(queue.Pop(), round + 100);
  }
}

TEST(MpmcQueueTest, CloseWakesBlockedConsumer) {
  MpmcQueue<int> queue(1);
  std::thread consumer([&] { EXPECT_EQ(queue.Pop(), std::nullopt); });
  queue.Close();
  consumer.join();
  EXPECT_FALSE(queue.Push(7));
  EXPECT_FALSE(queue.TryPush(7));
}

TEST(MpmcQueueTest, CloseDrainsRemainingItems) {
  MpmcQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(MpmcQueueTest, BlockedProducerResumesAfterPop) {
  MpmcQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // blocks until the consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.Pop(), 2);
}

TEST(MpmcQueueTest, PushAllDeliversInOrder) {
  MpmcQueue<int> queue(8);
  const std::vector<int> items = {1, 2, 3, 4, 5};
  EXPECT_EQ(queue.PushAll(items), items.size());
  EXPECT_EQ(queue.size(), items.size());
  for (int expected : items) {
    EXPECT_EQ(queue.Pop(), expected);
  }
}

TEST(MpmcQueueTest, PushAllLargerThanFreeSpaceCompletesInChunks) {
  // Capacity 3, batch 8: the producer must block mid-batch until a
  // consumer frees slots, then finish the remaining chunks.
  MpmcQueue<int> queue(3);
  std::vector<int> items(8);
  std::iota(items.begin(), items.end(), 0);
  std::atomic<size_t> pushed{0};
  std::thread producer([&] { pushed.store(queue.PushAll(items)); });
  for (int expected = 0; expected < 8; ++expected) {
    EXPECT_EQ(queue.Pop(), expected);
  }
  producer.join();
  EXPECT_EQ(pushed.load(), items.size());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(MpmcQueueTest, PushAllPartialOnClose) {
  // Fill the ring, start a batch that must block, then close: the batch
  // reports only the items that made it in (here the first chunk of 2).
  MpmcQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(100));
  EXPECT_TRUE(queue.Push(101));
  std::vector<int> items = {0, 1, 2, 3, 4, 5};
  std::atomic<size_t> pushed{items.size() + 1};
  std::thread producer([&] { pushed.store(queue.PushAll(items)); });
  // Wait until the producer's first chunk lands and it blocks on a full
  // ring, so the partial count is deterministic.
  while (queue.size() < 4u) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Close();
  producer.join();
  EXPECT_EQ(pushed.load(), 2u);
  // Close drains what was accepted, in order.
  EXPECT_EQ(queue.Pop(), 100);
  EXPECT_EQ(queue.Pop(), 101);
  EXPECT_EQ(queue.Pop(), 0);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(MpmcQueueTest, PushAllOnClosedQueuePushesNothing) {
  MpmcQueue<int> queue(4);
  queue.Close();
  const std::vector<int> items = {1, 2, 3};
  EXPECT_EQ(queue.PushAll(items), 0u);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(MpmcQueueTest, PopNDrainsUpToLimit) {
  MpmcQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopN(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  // Appends rather than overwrites, and takes whatever is left.
  EXPECT_EQ(queue.PopN(&out, 16), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MpmcQueueTest, PopNBlocksUntilItemOrClose) {
  MpmcQueue<int> queue(4);
  std::vector<int> out;
  std::thread consumer([&] {
    std::vector<int> batch;
    EXPECT_GE(queue.PopN(&batch, 4), 1u);  // blocks until the push below
    EXPECT_EQ(batch.front(), 42);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(queue.Push(42));
  consumer.join();
  // Closed and drained: PopN returns 0, the consumer shutdown signal.
  queue.Close();
  EXPECT_EQ(queue.PopN(&out, 4), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(MpmcQueueTest, TryPopNNonBlocking) {
  MpmcQueue<int> queue(4);
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopN(&out, 4), 0u);
  EXPECT_TRUE(queue.Push(7));
  EXPECT_TRUE(queue.Push(8));
  EXPECT_EQ(queue.TryPopN(&out, 4), 2u);
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
}

TEST(MpmcQueueTest, PushAllUnblocksBlockedBatchConsumers) {
  // A batched producer must wake every waiting consumer, not just one.
  MpmcQueue<int> queue(8);
  std::atomic<int64_t> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      while (queue.PopN(&batch, 2) > 0) {
        consumed.fetch_add(static_cast<int64_t>(batch.size()));
        batch.clear();
      }
    });
  }
  std::vector<int> items(30);
  std::iota(items.begin(), items.end(), 0);
  EXPECT_EQ(queue.PushAll(items), items.size());
  while (consumed.load() < 30) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 30);
}

TEST(MpmcQueueTest, ManyProducersManyConsumersPreserveItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  // Tiny capacity forces constant blocking on both sides.
  MpmcQueue<int> queue(8);
  std::atomic<int64_t> consumed_sum{0};
  std::atomic<int64_t> consumed_count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        consumed_sum.fetch_add(*item);
        consumed_count.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();

  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(consumed_count.load(), n);
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueueTest, CloseAndDrainTakesEverythingInFifoOrder) {
  MpmcQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  ASSERT_TRUE(queue.Push(3));
  std::vector<int> out;
  EXPECT_EQ(queue.CloseAndDrain(&out), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.size(), 0u);
  // Closed on both sides: pushes fail, pops report exhaustion.
  EXPECT_FALSE(queue.Push(4));
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(MpmcQueueTest, CloseAndDrainAppendsAndReportsCount) {
  MpmcQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(7));
  std::vector<int> out{5, 6};  // pre-existing backlog is preserved
  EXPECT_EQ(queue.CloseAndDrain(&out), 1u);
  EXPECT_EQ(out, (std::vector<int>{5, 6, 7}));
  // Idempotent on an already-closed queue: nothing left to take.
  EXPECT_EQ(queue.CloseAndDrain(&out), 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST(MpmcQueueTest, CloseAndDrainUnblocksFullProducer) {
  // The fail-stop window this primitive exists for: a producer blocked on
  // a full queue must wake, observe closed, and report its item UN-pushed
  // — never slip it into a queue nobody will drain again.
  MpmcQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    const bool pushed = queue.Push(2);  // blocks: queue full
    EXPECT_FALSE(pushed);
    rejected.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(rejected.load());
  std::vector<int> out;
  EXPECT_EQ(queue.CloseAndDrain(&out), 1u);
  producer.join();
  EXPECT_TRUE(rejected.load());
  // Item 1 drained, item 2 rejected back to its producer: both accounted
  // for on exactly one side.
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(MpmcQueueTest, CloseAndDrainConservesAgainstBatchedProducers) {
  // Producers PushAll batches while one consumer pops and then fail-stops
  // via CloseAndDrain: pushed items must equal popped + drained (exactly
  // once each), with the un-pushed remainders reported by PushAll.
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 4000;
  MpmcQueue<int> queue(8);
  std::atomic<int64_t> pushed_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        batch.push_back(p * kPerProducer + i);
      }
      pushed_count.fetch_add(
          static_cast<int64_t>(queue.PushAll(batch)));
    });
  }

  std::vector<int> popped;
  while (popped.size() < 200) {
    if (auto item = queue.TryPop()) popped.push_back(*item);
  }
  std::vector<int> drained;
  queue.CloseAndDrain(&drained);
  for (std::thread& t : producers) t.join();
  // A producer that raced the close may have pushed a chunk the consumer
  // never saw; drain the leftovers like RequeueTasks' caller would.
  // (CloseAndDrain is atomic, so nothing can arrive after it returns.)
  EXPECT_EQ(queue.size(), 0u);

  EXPECT_EQ(static_cast<int64_t>(popped.size() + drained.size()),
            pushed_count.load());
  std::vector<int> all = popped;
  all.insert(all.end(), drained.begin(), drained.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end())
      << "an item came out twice";
}

}  // namespace
}  // namespace schemble
