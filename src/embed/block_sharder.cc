#include "embed/block_sharder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "util/timer.h"

namespace tdmatch {
namespace embed {

const float* SigmoidTable() {
  static float table[kSigmoidTableSize];
  static bool init = [] {
    for (int i = 0; i < kSigmoidTableSize; ++i) {
      const float x = (static_cast<float>(i) / (kSigmoidTableSize - 1) *
                           2.0f - 1.0f) * kMaxExp;
      table[i] = 1.0f / (1.0f + std::exp(-x));
    }
    return true;
  }();
  (void)init;
  return table;
}

BlockScheduler::BlockScheduler(size_t num_items, size_t threads,
                               std::vector<SharedMatrix> matrices)
    : num_items_(num_items),
      num_blocks_((num_items + kItemsPerBlock - 1) / kItemsPerBlock),
      threads_(threads == 0 ? 1 : threads),
      matrices_(std::move(matrices)),
      k_(simd::Active()) {
  if (threads_ > 1 && num_blocks_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(threads_);
  }
  deltas_.resize(std::min(num_blocks_, kBlocksPerGroup) * matrices_.size());
  for (size_t w = 0; w < num_workers(); ++w) {
    for (const SharedMatrix& m : matrices_) slot_maps_.emplace_back(m.rows, -1);
  }
  for (const SharedMatrix& m : matrices_) touch_.emplace_back(m.rows, 0);
}

size_t BlockScheduler::block_end(size_t block) const {
  return std::min(num_items_, (block + 1) * kItemsPerBlock);
}

double BlockScheduler::RunEpoch(const Compute& compute) {
  double merge_s = 0.0;
  for (size_t group = 0; group < num_blocks_; group += kBlocksPerGroup) {
    const size_t group_end = std::min(num_blocks_, group + kBlocksPerGroup);
    if (pool_ == nullptr) {
      // Sequential execution of the identical schedule: all computes of
      // the group read the same group-start weights because the merges
      // are still deferred to the end of the group.
      for (size_t b = group; b < group_end; ++b) ComputeBlock(compute, b, 0);
    } else {
      // RunTasks returns only when every block of the group is done: the
      // group barrier. No merge may run while any block still reads the
      // shared weights, or the read state would depend on timing.
      std::atomic<size_t> ticket{group};
      pool_->RunTasks(threads_, [&](size_t worker) {
        for (;;) {
          const size_t b = ticket.fetch_add(1, std::memory_order_relaxed);
          if (b >= group_end) break;
          ComputeBlock(compute, b, worker);
        }
      });
    }
    const util::StopWatch merge_watch;
    MergeGroup(group, group_end);
    merge_s += merge_watch.ElapsedSeconds();
  }
  return merge_s;
}

void BlockScheduler::ComputeBlock(const Compute& compute, size_t block,
                                  size_t worker) {
  SparseDelta* const deltas = BlockDeltas(block);
  std::vector<int32_t>* const slot_maps =
      &slot_maps_[worker * matrices_.size()];
  for (size_t m = 0; m < matrices_.size(); ++m) {
    deltas[m].Reset(matrices_[m].data, matrices_[m].dim);
  }
  compute(block, worker, BlockRows(deltas, slot_maps));
  for (size_t m = 0; m < matrices_.size(); ++m) {
    deltas[m].Capture(slot_maps[m].data(), k_);
  }
}

void BlockScheduler::MergeGroup(size_t group_begin, size_t group_end) {
  // Three passes over the group's touched lists: count, merge in block
  // order, then zero the counts, so steady state is O(touched rows).
  auto for_each_delta = [&](auto&& fn) {
    for (size_t b = group_begin; b < group_end; ++b) {
      SparseDelta* const deltas = BlockDeltas(b);
      for (size_t m = 0; m < matrices_.size(); ++m) fn(deltas[m], touch_[m]);
    }
  };
  for_each_delta([](const SparseDelta& d, std::vector<uint32_t>& touch) {
    for (int32_t row : d.touched()) ++touch[row];
  });
  for_each_delta([this](const SparseDelta& d, std::vector<uint32_t>& touch) {
    d.MergeWeighted(touch.data(), k_);
  });
  for_each_delta([](const SparseDelta& d, std::vector<uint32_t>& touch) {
    for (int32_t row : d.touched()) touch[row] = 0;
  });
}

}  // namespace embed
}  // namespace tdmatch
