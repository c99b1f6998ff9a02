#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analysis_config.hpp"
#include "core/explain.hpp"
#include "core/hpset.hpp"
#include "core/message_stream.hpp"

/// \file incremental.hpp
/// The incremental delay-bound engine behind online admission control.
///
/// The paper's feasibility test is an off-line whole-set computation:
/// every query rebuilds the blocking analysis and re-runs Cal_U for the
/// entire population, so cost grows with system size instead of with the
/// size of the change.  This engine maintains the channel-overlap index
/// and the direct-blocking digraph incrementally across stream add /
/// remove mutations, derives the *dirty set* of each mutation — exactly
/// the streams whose HP sets can change — and marks only those stale in
/// a bound cache.  A stale bound costs one Cal_U when something needs
/// it: an admission trial's gate, a read, or settle(); everyone else is
/// served from the cache.  That Cal_U starts its horizon search from the
/// bound it replaces (DelayBoundCalculator::calc_with_hp's hint).
///
/// Dirty-set rule (see DESIGN.md §7): HP_j is the set of streams that
/// reach j in the direct-blocking digraph (edges encode the priority
/// restriction already), so adding or removing stream x can change HP_j
/// only for the j's that x reaches — the forward closure of x over
/// "blocks" edges, equivalently the reverse-reachable closure of x over
/// the transposed (blocked-by) BDG the relaxation walks.  Every other
/// stream keeps an untouched HP set, an untouched footprint of blocking
/// edges among HP ∪ {j}, and therefore an unchanged bound: ids renumber
/// on removal, but renumbering preserves relative order and every
/// tie-break in the analysis is a `<` on ids.
///
/// The engine is exact, not approximate: a property test churns random
/// add/remove sequences and asserts the bounds it serves are identical to
/// a from-scratch BlockingAnalysis + Cal_U pass after every mutation.
/// The cache is logically const: bound(), bound_at() and settle() fill it
/// from const methods, so a const engine must not be read from two
/// threads at once.

namespace wormrt::core {

class IncrementalAnalyzer : public DirectBlocking {
 public:
  /// Stable handle for an admitted stream (survives removals of others).
  using Handle = std::int64_t;

  /// The topology is borrowed and must outlive the engine; it sizes the
  /// per-channel / per-port overlap indexes.  Streams arrive pre-routed
  /// (make_stream), so no routing algorithm is needed here.
  explicit IncrementalAnalyzer(const topo::Topology& topo,
                               AnalysisConfig config = {});

  /// Outcome of one mutation: the touched stream's handle plus the
  /// established streams whose bounds it can change (the dirty set,
  /// excluding the touched stream itself), in ascending id order.
  struct Mutation {
    Handle handle = -1;
    std::vector<Handle> dirty;
    /// Under an add_stream() gate: the first stream, in evaluation
    /// order, whose bound fails it (the added stream's own handle when
    /// that one fails); -1 when every stream passes.
    Handle broken = -1;
  };

  /// A per-stream test of a freshly computed bound (the admission gate):
  /// true when \p stream keeps its guarantee under \p bound.  Called
  /// concurrently from the recompute's worker threads.
  using Gate = std::function<bool(const MessageStream& stream, Time bound)>;

  /// Registers \p stream (its id is rewritten to the dense position),
  /// updates the overlap index and blocking digraph, and marks the new
  /// stream and its dirty closure stale.  Returns the new handle + dirty
  /// set.
  /// A non-negative \p forced_handle registers under that exact handle
  /// instead of drawing the next one — the journal-replay path, which
  /// must reproduce pre-crash handle numbering bit for bit.  The forced
  /// handle must not collide with a live one; next_handle() advances
  /// past it.
  ///
  /// A \p gate makes the add a trial: it computes the new stream's bound
  /// first, then its dirty closure's in engine order, and stops at the
  /// first stream whose bound fails the gate, named in Mutation::broken;
  /// the same stream at every num_threads.  The streams after it stay
  /// stale.
  Mutation add_stream(MessageStream stream, Handle forced_handle = -1,
                      const Gate& gate = {});

  /// Tears a stream down, releasing its interference and marking the
  /// streams it blocked stale.  nullopt for an unknown handle.
  std::optional<Mutation> remove_stream(Handle handle);

  /// Undoes the most recent add_stream(), which must have registered
  /// \p handle with no mutation since: removes the appended stream and
  /// writes back the cache entries its dirty set had before the add
  /// (stale ones stay stale), computing nothing.  Exact, because the
  /// stream holds the last id, so its removal shifts no id and restores
  /// the population, the digraph and the indexes of before the add, and
  /// the written-back entries are that population's.  The handle counter
  /// is left alone (see set_next_handle).
  void undo_add(Handle handle);

  /// Channel-level dirtiness: the live streams whose paths traverse the
  /// directed channel, in ascending handle order.  This is the root set
  /// of a topology mutation — when a link goes down, exactly these
  /// streams lose their path, and the union of their removal closures is
  /// everything the fault can touch.  Served from the maintained
  /// channel-overlap index; O(streams on channel), no scan.
  std::vector<Handle> handles_on_channel(topo::ChannelId channel) const;

  /// Number of registered streams.
  std::size_t size() const override { return streams_.size(); }

  bool direct_blocks(StreamId a, StreamId b) const override;

  /// Bound of a stream (kNoTime when the free slots never accumulated to
  /// the latency within the deadline); nullopt for an unknown handle.
  /// O(1) from the cache, counted in Stats::bound_cache_hits; a stale
  /// bound is computed by this first read (one Cal_U) and cached.
  std::optional<Time> bound(Handle handle) const;

  /// Provenance of a stream's bound: re-runs Cal_U for just this stream
  /// and decomposes the result (see explain.hpp).  The decomposition's
  /// `bound` always equals bound() — same deterministic computation over
  /// the same population.  nullopt for unknown handles.
  std::optional<BoundProvenance> explain(Handle handle) const;

  /// The registered stream behind \p handle, or nullptr.
  const MessageStream* find(Handle handle) const;

  /// Dense id of \p handle (kNoStream when unknown).  Ids shift on
  /// removal; handles never do.
  StreamId id_of(Handle handle) const;
  Handle handle_of(StreamId id) const;

  /// The handle the next add_stream() will assign.  Part of the durable
  /// controller state: recovery restores it exactly so a recovered
  /// daemon hands out the same handles the crashed one would have.
  Handle next_handle() const { return next_handle_; }
  void set_next_handle(Handle handle) { next_handle_ = handle; }

  /// Bound by dense id, as bound() (not counted as a cache hit).
  Time bound_at(StreamId id) const;

  /// Computes every stale bound in one parallel pass: for readers of the
  /// whole population.
  void settle() const;

  /// The current population (dense ids, engine order).
  const StreamSet& streams() const { return streams_; }
  StreamSet snapshot() const { return streams_; }

  /// HP set of dense stream \p j derived from the maintained digraph —
  /// element-for-element identical to BlockingAnalysis::hp_set on the
  /// same population.
  HpSet hp_set(StreamId j) const;

  /// From-scratch bounds of the current population (BlockingAnalysis +
  /// Cal_U for every stream): the reference the exactness tests and the
  /// full-vs-incremental benches compare against.
  std::vector<Time> full_recompute_bounds() const;

  /// When set, every mutation marks the whole population dirty — the
  /// "full recompute per decision" behaviour of the pre-incremental
  /// AdmissionController, kept for benchmarking and as the property-test
  /// oracle.
  void set_force_full(bool force) { force_full_ = force; }
  bool force_full() const { return force_full_; }

  /// Cumulative work counters, for regression tests ("two consecutive
  /// bound_of calls do no re-analysis") and the service's METRICS
  /// mirrors (wormrt_engine_*_total).
  struct Stats {
    std::uint64_t adds = 0;
    std::uint64_t removes = 0;
    /// Cal_U evaluations performed: 1 + |dirty| per gated add, or 1 +
    /// the position of its first failing stream in its evaluation order
    /// (at num_threads > 1 it can also count indices claimed before the
    /// failure was seen), plus one per stale bound a read or settle()
    /// computes.  A mutation computes nothing itself.
    std::uint64_t bound_recomputes = 0;
    /// Established streams marked dirty across all mutations.
    std::uint64_t dirty_marked = 0;
    /// Direct-blocking edges inserted or erased.
    std::uint64_t edge_updates = 0;
    /// bound() lookups answered from the cache, with no Cal_U.  A read
    /// that computes a stale bound is not one.
    std::uint64_t bound_cache_hits = 0;
  };
  const Stats& stats() const { return stats_; }

  const AnalysisConfig& config() const { return config_; }

 private:
  const topo::Topology& topo_;
  AnalysisConfig config_;
  bool force_full_ = false;
  /// The last add_stream()'s handle (-1 once another mutation followed)
  /// and its dirty set's pre-add cache entries, for undo_add().
  Handle undo_handle_ = -1;
  std::vector<std::pair<StreamId, Time>> undo_bounds_;
  Handle next_handle_ = 0;
  /// mutable: the reads are logically const but count their work and
  /// fill the bound cache.
  mutable Stats stats_;

  StreamSet streams_;                    // dense ids = positions
  std::vector<Handle> handles_;          // id -> handle
  /// id -> cached bound, or kStale (incremental.cpp) until computed; one
  /// slot per stream, so the parallel recompute writes disjoint slots.
  mutable std::vector<Time> bounds_;
  /// id -> the bound a stale entry last held (kNoTime: none), the hint
  /// its recompute starts the horizon search from.  Written only by the
  /// mutations, when they mark a computed bound stale; the recompute's
  /// workers only read it.  Never journaled or replicated: it moves only
  /// the cost of a Cal_U, not its result.
  std::vector<Time> hints_;
  std::vector<std::vector<std::uint8_t>> adj_;  // adj_[a][b]: a blocks b
  std::unordered_map<Handle, StreamId> index_;  // handle -> id

  /// Channel-overlap index: streams using each directed channel / port.
  std::vector<std::vector<StreamId>> by_channel_;
  std::vector<std::vector<StreamId>> by_src_;
  std::vector<std::vector<StreamId>> by_dst_;

  /// Streams overlapping \p s on some shared resource (dedup'd).
  std::vector<StreamId> overlap_candidates(const MessageStream& s) const;
  /// Forward closure of \p x over blocks edges, excluding x itself,
  /// ascending.  The streams whose HP sets the mutation can change.
  std::vector<StreamId> dirty_closure(StreamId x) const;
  /// Computes and caches bounds for \p ids (parallel across streams)
  /// and returns the handle of the first of them, in \p ids order, whose
  /// bound fails \p gate (-1 when none does or there is no gate),
  /// skipping every id after it.
  Handle recompute(const std::vector<StreamId>& ids,
                   const Gate& gate = {}) const;
  /// Marks the bound of \p id stale, keeping a computed one as its hint;
  /// a bound that is already stale keeps its older hint.
  void mark_stale(StreamId id);
  void unindex(StreamId id);
  /// Drops stream \p id from the digraph, the indexes and the caches;
  /// ids above it shift down.
  void erase_stream(StreamId id);
  static void drop_and_shift(std::vector<StreamId>& list, StreamId id);
};

}  // namespace wormrt::core
