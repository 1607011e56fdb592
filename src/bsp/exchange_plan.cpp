#include "bsp/exchange_plan.h"

#include "common/assert.h"

namespace ebv::bsp {

ExchangePlan build_exchange_plan(const DistributedGraph& graph) {
  ExchangePlan plan;
  const PartitionId p = graph.num_workers();
  const VertexId n = graph.num_global_vertices();
  plan.num_workers = p;
  plan.lane_of.assign(static_cast<std::size_t>(p) * p, ExchangePlan::kNoLane);
  plan.senders_of.resize(p);
  plan.masters_of.resize(p);

  // Pass 1: local vertex and fan-out counts per worker, and which
  // (mirror, master) pairs exchange messages at all.
  std::vector<std::uint32_t> next(p, 0);
  std::vector<std::uint64_t> fan_count(p, 0);
  for (VertexId gv = 0; gv < n; ++gv) {
    const auto parts = graph.parts_of(gv);
    for (const PartitionId i : parts) ++next[i];
    if (parts.size() < 2) continue;
    const PartitionId m = graph.master_of(gv);
    fan_count[m] += parts.size() - 1;
    for (const PartitionId i : parts) {
      if (i != m) plan.lane_of[static_cast<std::size_t>(i) * p + m] = 0;
    }
  }
  for (PartitionId i = 0; i < p; ++i) {
    for (PartitionId m = 0; m < p; ++m) {
      std::uint32_t& id = plan.lane_of[static_cast<std::size_t>(i) * p + m];
      if (id == ExchangePlan::kNoLane) continue;
      id = plan.num_lanes++;
      plan.senders_of[m].push_back(i);
      plan.masters_of[i].push_back(m);
    }
  }
  EBV_REQUIRE(plan.num_lanes <= ExchangePlan::kLastMirror,
              "exchange plan: too many message lanes for the fan-out "
              "encoding");

  plan.slot_offset.assign(static_cast<std::size_t>(p) + 1, 0);
  plan.fanout_offset.assign(static_cast<std::size_t>(p) + 1, 0);
  for (PartitionId i = 0; i < p; ++i) {
    plan.slot_offset[i + 1] = plan.slot_offset[i] + next[i];
    plan.fanout_offset[i + 1] = plan.fanout_offset[i] + fan_count[i];
  }
  plan.slot_values.resize(plan.slot_offset[p]);
  plan.fanout_values.resize(plan.fanout_offset[p]);

  // Pass 2: the same walk assigns local ids (ascending global order per
  // worker, as DistributedGraph does) and fills the slots.
  std::vector<std::uint32_t> fan_next(p, 0);
  next.assign(p, 0);
  auto slot = [&](PartitionId i, std::uint32_t lv) -> std::uint32_t& {
    return plan.slot_values[plan.slot_offset[i] + lv];
  };
  auto fanout = [&](PartitionId m, std::uint32_t k) -> FanOut& {
    return plan.fanout_values[plan.fanout_offset[m] + k];
  };
  for (VertexId gv = 0; gv < n; ++gv) {
    const auto parts = graph.parts_of(gv);
    if (parts.size() < 2) {
      for (const PartitionId i : parts) ++next[i];
      continue;
    }
    const PartitionId m = graph.master_of(gv);
    const std::uint32_t master_lv = next[m];
    slot(m, master_lv) = fan_next[m];
    for (const PartitionId i : parts) {
      const std::uint32_t lv = next[i]++;
      if (i == m) continue;
      slot(i, lv) = master_lv;
      fanout(m, fan_next[m]++) = {plan.lane(i, m), lv};
    }
    fanout(m, fan_next[m] - 1).lane |= ExchangePlan::kLastMirror;
  }
  return plan;
}

}  // namespace ebv::bsp
