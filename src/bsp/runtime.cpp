#include "bsp/runtime.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bsp/checkpoint.h"
#include "bsp/exchange_plan.h"
#include "common/assert.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/task_graph.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace ebv::bsp {
namespace {

/// One value in flight between two workers — the runtime's wire unit.
/// `slot` is the vertex's local id on the receiving worker, resolved by
/// the run's ExchangePlan, so the receiver indexes its arrays directly.
/// Packed to 12 bytes: lanes hold one entry per replica message, and
/// 4 bytes of padding were a quarter of their memory.
#pragma pack(push, 4)
struct WireMessage {
  std::uint32_t slot = 0;
  Value value = 0.0;
};
#pragma pack(pop)
static_assert(sizeof(WireMessage) == 12, "WireMessage is packed");

/// Messages from one worker to one peer within a superstep. Exactly one
/// task writes a lane and exactly one later task drains it, ordered by
/// the task graph, so it needs no lock. `count` is the lane's wire
/// message count for the superstep — pushes minus the messages combining
/// absorbed — reduced into the per-worker counters at the barrier.
struct Lane {
  std::vector<WireMessage> msgs;
  std::uint64_t count = 0;

  void push(const WireMessage& msg) {
    msgs.push_back(msg);
    ++count;
  }
};

/// Per-superstep phase accumulators (relaxed atomics fed by the task
/// bodies' obs::trace::Span probes — tasks of the same phase run
/// concurrently under kParallel — reduced into RunStats::phase_wall at
/// the barrier).
struct PhaseWallAccum {
  std::atomic<double> compute{0.0};
  std::atomic<double> route{0.0};
  std::atomic<double> merge{0.0};
  std::atomic<double> broadcast{0.0};
  std::atomic<double> install{0.0};
  std::atomic<double> load{0.0};
  std::atomic<double> release{0.0};
};

[[noreturn]] void fail_nan(const SubgraphProgram& program, VertexId gv,
                           std::uint32_t step) {
  throw std::runtime_error(
      "bsp: program '" + program.name() + "' produced NaN for vertex " +
      std::to_string(gv) + " in superstep " + std::to_string(step) +
      "; NaN never compares equal to itself, so the change-driven halting "
      "test would burn max_supersteps without converging");
}

}  // namespace

RunStats BspRuntime::run(const DistributedGraph& graph,
                         const SubgraphProgram& program) const {
  const Timer wall;
  const double cpu_start = process_cpu_seconds();
  // Phase-wall accumulator for the superstep currently executing; null
  // whenever --phase-stats is off or between supersteps (the init and
  // gather stages), so the instrumented lambdas below stay free.
  std::atomic<double>* load_slot = nullptr;
  std::atomic<double>* release_slot = nullptr;
  const PartitionId p = graph.num_workers();
  EBV_REQUIRE(p >= 1, "need at least one worker");
  options_.cost_model.validate();
  const ClusterCostModel& cost = options_.cost_model;

  // --- Residency plan ---------------------------------------------------
  // k workers materialised at a time; k == p (the default) is the
  // all-resident schedule. For a spilled graph the cache below holds the
  // materialised workers; for a resident graph it stays empty and sub()
  // reads graph.local() directly, so the bounded schedule is runnable —
  // and bit-identical — on both representations.
  PartitionId k = options_.resident_workers;
  if (k == 0 || k > p) k = p;
  const bool spilled = graph.spilled();
  const bool bounded = k < p;
  const bool with_loads = spilled && bounded;
  // Prefetch shrinks the residency groups to ⌊k/2⌋ so the loader task
  // for group g+1 can run while group g computes, current + next group
  // together still inside the budget. Legal because results are pinned
  // bit-identical for every budget, hence for every grouping.
  const bool prefetch = options_.prefetch && with_loads && k >= 2;
  const PartitionId group_size =
      bounded ? (prefetch ? std::max<PartitionId>(1, k / 2) : k) : p;
  struct Group {
    PartitionId first;
    PartitionId last;
  };
  std::vector<Group> groups;
  for (PartitionId g = 0; g < p; g += group_size) {
    groups.push_back({g, std::min<PartitionId>(g + group_size, p)});
  }
  const std::size_t ng = groups.size();

  std::vector<std::unique_ptr<LocalSubgraph>> cache;
  if (spilled) cache.resize(p);

  // Observed-residency accounting: every materialisation/release of a
  // worker subgraph moves resident_now, and resident_peak records the
  // high-water mark. A loader and a (different group's) release task can
  // run concurrently under prefetch, hence atomics. Reported via
  // RunStats::peak_resident_workers and pinned <= k by tests.
  std::atomic<std::uint32_t> resident_now{0};
  std::atomic<std::uint32_t> resident_peak{0};

  auto sub = [&](PartitionId i) -> const LocalSubgraph& {
    return spilled ? *cache[i] : graph.local(i);
  };
  auto ensure_loaded = [&](PartitionId first, PartitionId last) {
    if (!spilled) return;
    const obs::trace::Span probe("load", first, load_slot);
    for (PartitionId i = first; i < last; ++i) {
      if (cache[i] == nullptr) {
        // An unbounded budget loads every worker once and keeps it; a
        // bounded one materialises per phase. Either way a load is
        // section copies only: the adjacency a program reads is built
        // by its compute task and dropped with the subgraph at release.
        cache[i] = std::make_unique<LocalSubgraph>(graph.load_worker(i));
        const std::uint32_t now =
            1 + resident_now.fetch_add(1, std::memory_order_relaxed);
        std::uint32_t peak = resident_peak.load(std::memory_order_relaxed);
        while (now > peak &&
               !resident_peak.compare_exchange_weak(
                   peak, now, std::memory_order_relaxed)) {
        }
      }
    }
  };
  auto release = [&](PartitionId first, PartitionId last) {
    if (!spilled || !bounded) return;
    const obs::trace::Span probe("release", first, release_slot);
    for (PartitionId i = first; i < last; ++i) {
      if (cache[i] != nullptr) {
        cache[i].reset();
        resident_now.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  };
  /// Run `body(first, last)` over the residency groups in ascending
  /// worker order (one-shot stages: value init and the final gather).
  auto for_each_group = [&](auto&& body) {
    for (const Group& grp : groups) {
      ensure_loaded(grp.first, grp.last);
      body(grp.first, grp.last);
      release(grp.first, grp.last);
    }
  };

  // --- Static exchange plan (bsp/exchange_plan.h) ----------------------
  // Every (mirror worker i, master m) pair that shares a replicated
  // vertex owns one lane id, plan.lane(i, m): up[id] carries i's mirror
  // accumulators to m, down[id] carries m's broadcasts back to i.
  // senders_of[m] — workers that route to master m; masters_of[i] —
  // masters that broadcast into worker i. Both ascending; they are the
  // scheduler's cross-worker dependencies AND the order in which a
  // reader drains its lanes, which reproduces the sequential sweep's
  // message order under any schedule. Messages carry the receiver's
  // local slot from the plan, so no id is ever searched.
  const ExchangePlan plan = build_exchange_plan(graph);
  const auto& senders_of = plan.senders_of;
  const auto& masters_of = plan.masters_of;
  // Lane buffers keep their capacity across supersteps; their contents
  // never outlive one (every lane is drained before the barrier).
  std::vector<Lane> up(plan.num_lanes);
  std::vector<Lane> down(plan.num_lanes);

  // --- Per-worker state (resident regardless of the budget: O(Σ|Vi|),
  // the same order as the routing tables) ------------------------------
  std::vector<std::vector<Value>> values(p);
  std::vector<std::vector<Value>> acc(p);
  std::vector<std::vector<std::uint8_t>> has_acc(p);
  std::vector<std::vector<VertexId>> emitted(p);
  std::vector<std::vector<VertexId>> updated(p);   // frontier after sync
  // last_sync[i][lv]: the value of a replicated vertex as of the last
  // replica synchronisation. Masters broadcast whenever the merged value
  // diverges from it — comparing against the *current* value would miss
  // improvements the master made in-place during local compute.
  std::vector<std::vector<Value>> last_sync(p);
  for_each_group([&](PartitionId first, PartitionId last) {
    for (PartitionId i = first; i < last; ++i) {
      const LocalSubgraph& ls = sub(i);
      EBV_ASSERT(plan.slot(i).size() == ls.num_vertices());
      values[i].resize(ls.num_vertices());
      for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
        values[i][lv] = program.init_value(ls.global_ids[lv]);
      }
      acc[i].assign(ls.num_vertices(), Value{});
      has_acc[i].assign(ls.num_vertices(), 0);
      last_sync[i] = values[i];
    }
  });

  // Program-defined per-worker scratch, persistent across supersteps.
  std::vector<std::any> worker_state(p);
  // Staged master broadcasts: filled by merge(m) as {fan-out start,
  // value}, shipped by broadcast(m).
  std::vector<std::vector<WireMessage>> bcast(p);

  RunStats stats;
  stats.messages_sent_per_worker.assign(p, 0);
  const std::optional<std::uint32_t> fixed = program.fixed_supersteps();

  // --- Checkpoint/restore (bsp/checkpoint.h) ---------------------------
  const bool checkpoint_on =
      !options_.checkpoint_dir.empty() && options_.checkpoint_every > 0;
  EBV_REQUIRE(!options_.resume || !options_.checkpoint_dir.empty(),
              "resume needs checkpoint_dir (--resume without "
              "--checkpoint-dir)");

  /// Snapshot the full superstep cut after `completed` barriers. Every
  /// field is either a plain copy of loop state or, for comp/comm, the
  /// still-undivided accumulation sums, so restoring them continues the
  /// identical float accumulation order.
  auto collect_checkpoint = [&](std::uint32_t completed) {
    Checkpoint ck;
    ck.completed_supersteps = completed;
    ck.num_workers = p;
    ck.num_global_vertices = graph.num_global_vertices();
    ck.num_global_edges = graph.num_global_edges();
    ck.program = program.name();
    ck.total_messages = stats.total_messages;
    ck.raw_messages = stats.raw_messages;
    ck.execution_seconds = stats.execution_seconds;
    ck.comp_seconds_sum = stats.comp_seconds;
    ck.comm_seconds_sum = stats.comm_seconds;
    ck.delta_c_seconds = stats.delta_c_seconds;
    ck.peak_resident_workers =
        resident_peak.load(std::memory_order_relaxed);
    ck.messages_sent_per_worker = stats.messages_sent_per_worker;
    ck.steps = stats.steps;
    ck.values = values;
    ck.last_sync = last_sync;
    ck.updated = updated;
    return ck;
  };

  std::uint32_t start_step = 0;
  if (options_.resume) {
    if (std::optional<Checkpoint> ck =
            load_latest_checkpoint(options_.checkpoint_dir)) {
      EBV_REQUIRE(
          ck->num_workers == p &&
              ck->num_global_vertices == graph.num_global_vertices() &&
              ck->num_global_edges == graph.num_global_edges() &&
              ck->program == program.name(),
          "resume: the checkpoint in checkpoint_dir was written by a "
          "different run (graph shape or program mismatch)");
      for (PartitionId i = 0; i < p; ++i) {
        EBV_REQUIRE(ck->values[i].size() == values[i].size(),
                    "resume: checkpoint worker state does not match this "
                    "partition");
      }
      start_step = ck->completed_supersteps;
      stats.supersteps = start_step;
      stats.steps = std::move(ck->steps);
      stats.execution_seconds = ck->execution_seconds;
      stats.comp_seconds = ck->comp_seconds_sum;
      stats.comm_seconds = ck->comm_seconds_sum;
      stats.delta_c_seconds = ck->delta_c_seconds;
      stats.total_messages = ck->total_messages;
      stats.raw_messages = ck->raw_messages;
      stats.messages_sent_per_worker =
          std::move(ck->messages_sent_per_worker);
      if (ck->peak_resident_workers >
          resident_peak.load(std::memory_order_relaxed)) {
        resident_peak.store(ck->peak_resident_workers,
                            std::memory_order_relaxed);
      }
      for (PartitionId i = 0; i < p; ++i) {
        values[i] = std::move(ck->values[i]);
        last_sync[i] = std::move(ck->last_sync[i]);
        updated[i] = std::move(ck->updated[i]);
      }
      if (start_step > 0) {
        // Programs rebuild their per-worker scratch; the throwaway
        // context discards any work accounting so virtual time stays
        // bit-identical to the uninterrupted run.
        for_each_group([&](PartitionId first, PartitionId last) {
          for (PartitionId i = first; i < last; ++i) {
            WorkerContext ctx(sub(i), values[i], acc[i], has_acc[i],
                              emitted[i], program);
            ctx.updated_ = &updated[i];
            ctx.state_ = &worker_state[i];
            program.restore_state(ctx, start_step);
          }
        });
      }
    }
  }

  // Scheduler fan-out. The sequential policy runs each superstep's graph
  // serially in deterministic topological order; kParallel runs it on a
  // work-stealing team — the whole pool, or exactly num_threads when set.
  unsigned team = 1;
  if (options_.policy == ExecutionPolicy::kParallel) {
    team = options_.num_threads > 0
               ? static_cast<unsigned>(options_.num_threads)
               : ThreadPool::global().num_threads();
  }

  for (std::uint32_t step = start_step; step < options_.max_supersteps;
       ++step) {
    PhaseWallAccum phase_accum;
    auto phase_slot = [&](std::atomic<double>& slot) {
      return options_.phase_stats ? &slot : nullptr;
    };
    load_slot = phase_slot(phase_accum.load);
    release_slot = phase_slot(phase_accum.release);
    std::vector<WorkerStepStats> step_stats(p);
    // Owner-indexed counters: raw[i] is written only by route(i) and
    // broadcast(i), changed[i] only by worker i's compute, merge and
    // install — each set ordered by task dependencies. Wire counts live
    // on the lanes and are reduced at the barrier.
    std::vector<std::uint64_t> raw(p, 0);
    std::vector<std::uint8_t> changed(p, 0);

    // --- Task bodies ---------------------------------------------------
    // compute(i): the program's local compute plus the worker-local half
    // of emission routing — single-copy vertices resolve in place.
    auto compute_worker = [&](PartitionId i) {
      const obs::trace::Span probe("compute", i,
                                   phase_slot(phase_accum.compute));
      const LocalSubgraph& ls = sub(i);
      WorkerContext ctx(ls, values[i], acc[i], has_acc[i], emitted[i],
                        program);
      ctx.updated_ = &updated[i];
      ctx.state_ = &worker_state[i];
      program.compute(ctx, step);
      step_stats[i].work_units = ctx.work_units();
      step_stats[i].comp_seconds = cost.comp_seconds(ctx.work_units());
      updated[i].clear();
      for (const VertexId lv : emitted[i]) {
        if (ls.is_replicated[lv] != 0) continue;
        Value merged = acc[i][lv];
        if (program.combine_with_current()) {
          merged = program.combine(merged, values[i][lv]);
        }
        const Value next = program.apply(ls.global_ids[lv], merged);
        if (std::isnan(next)) fail_nan(program, ls.global_ids[lv], step);
        if (next != values[i][lv]) {
          values[i][lv] = next;
          updated[i].push_back(lv);
          changed[i] = 1;
        }
        has_acc[i][lv] = 0;
      }
      // Master replicas keep has_acc set; consumed by merge(i).
    };

    // route(i): ship mirror accumulators to their masters' lanes, each
    // addressed to the vertex's slot on the master.
    auto route_worker = [&](PartitionId i) {
      const obs::trace::Span probe("route", i,
                                   phase_slot(phase_accum.route));
      const LocalSubgraph& ls = sub(i);
      const std::span<const std::uint32_t> slot = plan.slot(i);
      for (const VertexId lv : emitted[i]) {
        if (ls.is_replicated[lv] == 0 || ls.is_master[lv] != 0) continue;
        ++raw[i];
        up[plan.lane(i, ls.master_part[lv])].push({slot[lv], acc[i][lv]});
        has_acc[i][lv] = 0;
      }
    };

    // broadcast(m): stream each value staged by merge(m) down its
    // vertex's fan-out list, one message per mirror. Needs no residency:
    // it reads only bcast[m] and the plan.
    auto broadcast_worker = [&](PartitionId m) {
      const obs::trace::Span probe("broadcast", m,
                                   phase_slot(phase_accum.broadcast));
      const FanOut* fanout = plan.fanout(m).data();
      for (const WireMessage& staged : bcast[m]) {
        for (const FanOut* f = fanout + staged.slot;; ++f) {
          ++raw[m];
          down[f->lane & ~ExchangePlan::kLastMirror].push(
              {f->slot, staged.value});
          if ((f->lane & ExchangePlan::kLastMirror) != 0) break;
        }
      }
      bcast[m].clear();
    };

    // merge(m): fold routed messages into the master's accumulators in
    // ascending sender order, apply, and stage broadcasts for changed
    // values.
    auto merge_worker = [&](PartitionId m) {
      const obs::trace::Span probe("merge", m,
                                   phase_slot(phase_accum.merge));
      const LocalSubgraph& ls = sub(m);
      auto fold = [&](const WireMessage& msg) {
        const VertexId lv = msg.slot;
        EBV_ASSERT(ls.is_master[lv] != 0);
        if (has_acc[m][lv] != 0) {
          acc[m][lv] = program.combine(acc[m][lv], msg.value);
        } else {
          acc[m][lv] = msg.value;
          has_acc[m][lv] = 1;
          emitted[m].push_back(lv);
        }
      };
      // With combining, same-vertex messages fold into the first
      // arrival's value before reaching the accumulator, and each
      // absorbed message leaves its sender's wire count.
      std::vector<WireMessage> combined;
      std::unordered_map<std::uint32_t, std::size_t> position;
      for (const PartitionId s : senders_of[m]) {
        Lane& lane = up[plan.lane(s, m)];
        for (const WireMessage& msg : lane.msgs) {
          if (!options_.combine_messages) {
            fold(msg);
            continue;
          }
          const auto [it, inserted] =
              position.try_emplace(msg.slot, combined.size());
          if (inserted) {
            combined.push_back(msg);
            continue;
          }
          WireMessage& first = combined[it->second];
          first.value = program.combine(first.value, msg.value);
          --lane.count;
        }
        lane.msgs.clear();
      }
      for (const WireMessage& msg : combined) fold(msg);

      const std::span<const std::uint32_t> fanout_start = plan.slot(m);
      for (const VertexId lv : emitted[m]) {
        if (has_acc[m][lv] == 0) continue;  // already resolved in compute
        if (ls.is_replicated[lv] == 0) continue;    // resolved in compute
        if (ls.is_master[lv] == 0) continue;        // mirror: routed away
        Value merged = acc[m][lv];
        if (program.combine_with_current()) {
          merged = program.combine(merged, values[m][lv]);
        }
        const Value next = program.apply(ls.global_ids[lv], merged);
        if (std::isnan(next)) fail_nan(program, ls.global_ids[lv], step);
        has_acc[m][lv] = 0;
        if (next != values[m][lv]) {
          values[m][lv] = next;
          updated[m].push_back(lv);
          changed[m] = 1;
        }
        if (next == last_sync[m][lv]) continue;  // mirrors are up to date
        last_sync[m][lv] = next;
        changed[m] = 1;
        bcast[m].push_back({fanout_start[lv], next});
      }
      emitted[m].clear();  // mirrors' entries included: route consumed them
    };

    // install(i): mirrors adopt broadcast values, in ascending master
    // order. Touches only the runtime's per-worker arrays, never the
    // subgraph, so it needs no residency.
    auto install_worker = [&](PartitionId i) {
      const obs::trace::Span probe("install", i,
                                   phase_slot(phase_accum.install));
      for (const PartitionId m : masters_of[i]) {
        Lane& lane = down[plan.lane(i, m)];
        for (const WireMessage& msg : lane.msgs) {
          const VertexId lv = msg.slot;
          last_sync[i][lv] = msg.value;
          if (values[i][lv] != msg.value) {
            values[i][lv] = msg.value;
            updated[i].push_back(lv);
            changed[i] = 1;
          }
        }
        lane.msgs.clear();
      }
    };

    // --- Superstep task graph ------------------------------------------
    // Per worker: C(i) compute → R(i) route; M(m) merge waits for R(m)
    // and every sender's R(s); B(m) broadcast → I(i) install, which
    // waits for M(i) and every master's B(m). Each lane has one writer
    // (R or B) ordered before its one reader (M or I), so no task ever
    // waits on a peer it does not exchange messages with.
    //
    // Two residency phases (compute+route, merge), each with optional
    // per-group loader/release tasks under a binding budget; broadcast
    // and install read no subgraph and run outside them. The loads form
    // one global chain across the phases (L1[0..], L2[0..]) and so do
    // the releases (Rel1[0..], Rel2[0..], each gated on its chain
    // predecessor); every load also waits for the release `overlap`
    // positions behind it in the global load order. Chaining the
    // releases makes that gate transitive — when a load runs, EVERY
    // earlier release outside its overlap window has executed (not
    // merely become ready), so at most `overlap` groups are materialised
    // at any instant under any steal schedule: 2 × ⌊k/2⌋ ≤ k with
    // prefetch, 1 × k without. In particular a group is provably
    // released before phase 2 reloads it — without the chain, a
    // ready-but-unexecuted straggler release (e.g. phase 1's
    // second-to-last, which no later task would otherwise depend on)
    // could reset a subgraph AFTER phase 2 reloaded it, racing the merge
    // tasks reading it.
    const std::size_t overlap = prefetch ? 2 : 1;
    TaskGraph tg;
    constexpr TaskGraph::TaskId kNone = TaskGraph::kNone;
    std::vector<TaskGraph::TaskId> C(p), R(p), M(p), B(p);
    std::vector<TaskGraph::TaskId> L1(ng, kNone), Rel1(ng, kNone);
    std::vector<TaskGraph::TaskId> L2(ng, kNone), Rel2(ng, kNone);
    TaskGraph::TaskId prev_rel = kNone;  // release-chain tail

    // Phase 1: load → compute (+ local resolve) → route → release.
    for (std::size_t g = 0; g < ng; ++g) {
      const Group grp = groups[g];
      if (with_loads) {
        L1[g] = tg.add(
            [&, grp] { ensure_loaded(grp.first, grp.last); },
            {g > 0 ? L1[g - 1] : kNone,
             g >= overlap ? Rel1[g - overlap] : kNone});
      }
      for (PartitionId i = grp.first; i < grp.last; ++i) {
        C[i] = tg.add([&, i] { compute_worker(i); }, {L1[g]});
        R[i] = tg.add([&, i] { route_worker(i); }, {C[i]});
      }
      if (with_loads) {
        Rel1[g] = tg.add([&, grp] { release(grp.first, grp.last); },
                         {prev_rel});
        for (PartitionId i = grp.first; i < grp.last; ++i) {
          tg.depend(Rel1[g], R[i]);
        }
        prev_rel = Rel1[g];
      }
    }

    // Phase 2: load → merge → release, with broadcast(m) after merge(m).
    // Each load carries an explicit release-before-reload edge on its own
    // group's phase-1 release (also implied by the chain — kept direct so
    // the correctness invariant survives future overlap changes).
    for (std::size_t g = 0; g < ng; ++g) {
      const Group grp = groups[g];
      if (with_loads) {
        L2[g] = tg.add(
            [&, grp] { ensure_loaded(grp.first, grp.last); },
            {g > 0 ? L2[g - 1] : kNone, Rel1[g],
             g >= overlap ? Rel2[g - overlap] : Rel1[ng - overlap + g]});
      }
      for (PartitionId m = grp.first; m < grp.last; ++m) {
        M[m] = tg.add([&, m] { merge_worker(m); }, {L2[g], R[m]});
        for (const PartitionId s : senders_of[m]) tg.depend(M[m], R[s]);
        B[m] = tg.add([&, m] { broadcast_worker(m); }, {M[m]});
      }
      if (with_loads) {
        Rel2[g] = tg.add([&, grp] { release(grp.first, grp.last); },
                         {prev_rel});
        for (PartitionId m = grp.first; m < grp.last; ++m) {
          tg.depend(Rel2[g], M[m]);
        }
        prev_rel = Rel2[g];
      }
    }

    // Install: I(i) after merge(i) and every master's broadcast.
    for (PartitionId i = 0; i < p; ++i) {
      const TaskGraph::TaskId install = tg.add([&, i] { install_worker(i); },
                                               {M[i]});
      for (const PartitionId m : masters_of[i]) tg.depend(install, B[m]);
    }

    double superstep_wall = 0.0;
    {
      const obs::trace::Span span("superstep", step);
      const Timer superstep_timer;
      tg.run(team);
      if (options_.phase_stats) superstep_wall = superstep_timer.seconds();
    }
    load_slot = nullptr;
    release_slot = nullptr;

    // A crash inside the superstep (modelled by the injected abort)
    // reaches the outside world before any of this superstep's state is
    // accounted or checkpointed — resume replays it from the last cut.
    if (failpoint::hit("bsp.superstep") == failpoint::Action::kAbort) {
      throw failpoint::InjectedFault(
          "bsp.superstep", failpoint::Action::kAbort,
          "bsp: superstep " + std::to_string(step) + " aborted (injected)");
    }

    // --- Stage 3: synchronisation (reduction + accounting) --------------
    std::vector<std::uint64_t> sent(p, 0);
    std::vector<std::uint64_t> received(p, 0);
    std::vector<std::uint64_t> msgs_local(p, 0);
    std::vector<std::uint64_t> msgs_remote(p, 0);
    auto count_lane = [&](PartitionId from, PartitionId to, Lane& lane) {
      sent[from] += lane.count;
      received[to] += lane.count;
      (cost.same_node(from, to) ? msgs_local : msgs_remote)[from] +=
          lane.count;
      lane.count = 0;
    };
    for (PartitionId i = 0; i < p; ++i) {
      for (const PartitionId m : masters_of[i]) {
        count_lane(i, m, up[plan.lane(i, m)]);
        count_lane(m, i, down[plan.lane(i, m)]);
      }
    }
    bool any_change = false;
    for (PartitionId i = 0; i < p; ++i) {
      if (changed[i] != 0) any_change = true;
      step_stats[i].messages_sent = sent[i];
      step_stats[i].messages_received = received[i];
      stats.messages_sent_per_worker[i] += sent[i];
      stats.total_messages += sent[i];
      stats.raw_messages += raw[i];
    }
    double step_max = 0.0;
    double step_min = std::numeric_limits<double>::infinity();
    for (PartitionId i = 0; i < p; ++i) {
      step_stats[i].comm_seconds =
          cost.comm_seconds(msgs_local[i], msgs_remote[i]);
      const double t = step_stats[i].comp_seconds + step_stats[i].comm_seconds;
      step_max = std::max(step_max, t);
      step_min = std::min(step_min, t);
    }
    stats.execution_seconds += step_max + cost.latency_seconds();
    stats.delta_c_seconds += step_max - step_min;
    for (PartitionId i = 0; i < p; ++i) {
      stats.comp_seconds += step_stats[i].comp_seconds;
      stats.comm_seconds += step_stats[i].comm_seconds;
    }
    stats.steps.push_back(std::move(step_stats));
    ++stats.supersteps;
    if (options_.phase_stats) {
      PhaseWallStats pws;
      pws.compute_seconds = phase_accum.compute.load(std::memory_order_relaxed);
      pws.route_seconds = phase_accum.route.load(std::memory_order_relaxed);
      pws.merge_seconds = phase_accum.merge.load(std::memory_order_relaxed);
      pws.broadcast_seconds =
          phase_accum.broadcast.load(std::memory_order_relaxed);
      pws.install_seconds = phase_accum.install.load(std::memory_order_relaxed);
      pws.load_seconds = phase_accum.load.load(std::memory_order_relaxed);
      pws.release_seconds = phase_accum.release.load(std::memory_order_relaxed);
      pws.superstep_seconds = superstep_wall;
      stats.phase_wall.push_back(pws);
    }

    const bool more_fixed = fixed.has_value() && step + 1 < *fixed;
    const bool done = fixed.has_value() ? !more_fixed : !any_change;
    // Checkpoint at the barrier — the consistent cut — but never after
    // the final superstep (a resumed converged run must not replay one).
    if (!done && checkpoint_on &&
        (step + 1) % options_.checkpoint_every == 0) {
      const obs::trace::Span span("checkpoint.publish", step + 1);
      write_checkpoint(options_.checkpoint_dir,
                       collect_checkpoint(step + 1));
    }
    if (done) break;
  }

  stats.comp_seconds /= p;
  stats.comm_seconds /= p;

  // --- Gather final values from masters (uncovered vertices keep init).
  // Written master-side so a bounded budget only materialises one group
  // at a time; for every covered vertex exactly one worker holds
  // is_master, so this writes the same values as a per-vertex gather.
  stats.values.assign(graph.num_global_vertices(), Value{});
  for_each_group([&](PartitionId first, PartitionId last) {
    for (PartitionId m = first; m < last; ++m) {
      const LocalSubgraph& ls = sub(m);
      for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
        if (ls.is_master[lv] != 0) {
          stats.values[ls.global_ids[lv]] = values[m][lv];
        }
      }
    }
  });
  for (VertexId gv = 0; gv < graph.num_global_vertices(); ++gv) {
    if (graph.master_of(gv) == kInvalidPartition) {
      stats.values[gv] = program.init_value(gv);
    }
  }
  stats.peak_resident_workers = resident_peak.load(std::memory_order_relaxed);
  stats.wall_seconds = wall.seconds();
  stats.cpu_seconds = process_cpu_seconds() - cpu_start;
  return stats;
}

}  // namespace ebv::bsp
