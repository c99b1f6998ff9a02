#include "core/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>

#include "core/delay_bound.hpp"
#include "obs/trace.hpp"
#include "topo/topology.hpp"
#include "util/thread_pool.hpp"

namespace wormrt::core {

namespace {
/// A cached bound that is not computed yet: below kNoTime, which is a
/// bound (none within the deadline).
constexpr Time kStale = kNoTime - 1;
}  // namespace

IncrementalAnalyzer::IncrementalAnalyzer(const topo::Topology& topo,
                                         AnalysisConfig config)
    : topo_(topo),
      config_(config),
      by_channel_(topo.num_channels()),
      by_src_(static_cast<std::size_t>(topo.num_nodes())),
      by_dst_(static_cast<std::size_t>(topo.num_nodes())) {}

bool IncrementalAnalyzer::direct_blocks(StreamId a, StreamId b) const {
  return adj_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] != 0;
}

std::vector<StreamId> IncrementalAnalyzer::overlap_candidates(
    const MessageStream& s) const {
  std::vector<std::uint8_t> seen(streams_.size(), 0);
  std::vector<StreamId> out;
  const auto consider = [&](const std::vector<StreamId>& list) {
    for (const StreamId other : list) {
      if (!seen[static_cast<std::size_t>(other)]) {
        seen[static_cast<std::size_t>(other)] = 1;
        out.push_back(other);
      }
    }
  };
  for (const topo::ChannelId c : s.path.channels) {
    consider(by_channel_[static_cast<std::size_t>(c)]);
  }
  if (config_.ejection_port_overlap) {
    consider(by_dst_[static_cast<std::size_t>(s.dst)]);
  }
  if (config_.injection_port_overlap) {
    consider(by_src_[static_cast<std::size_t>(s.src)]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<StreamId> IncrementalAnalyzer::dirty_closure(StreamId x) const {
  const std::size_t n = streams_.size();
  std::vector<std::uint8_t> reached(n, 0);
  reached[static_cast<std::size_t>(x)] = 1;
  std::deque<StreamId> frontier{x};
  while (!frontier.empty()) {
    const StreamId u = frontier.front();
    frontier.pop_front();
    const auto& row = adj_[static_cast<std::size_t>(u)];
    for (std::size_t v = 0; v < n; ++v) {
      if (row[v] != 0 && !reached[v]) {
        reached[v] = 1;
        frontier.push_back(static_cast<StreamId>(v));
      }
    }
  }
  std::vector<StreamId> out;
  for (std::size_t v = 0; v < n; ++v) {
    if (reached[v] && static_cast<StreamId>(v) != x) {
      out.push_back(static_cast<StreamId>(v));
    }
  }
  return out;
}

HpSet IncrementalAnalyzer::hp_set(StreamId j) const {
  const std::size_t n = streams_.size();
  // Reverse BFS from j: every reached stream can delay j through some
  // chain of direct-blocking relations (same construction as
  // BlockingAnalysis::build_hp_sets, restricted to one stream).
  std::vector<std::uint8_t> reached(n, 0);
  reached[static_cast<std::size_t>(j)] = 1;
  std::deque<StreamId> frontier{j};
  while (!frontier.empty()) {
    const StreamId v = frontier.front();
    frontier.pop_front();
    for (std::size_t u = 0; u < n; ++u) {
      if (!reached[u] && adj_[u][static_cast<std::size_t>(v)] != 0) {
        reached[u] = 1;
        frontier.push_back(static_cast<StreamId>(u));
      }
    }
  }

  HpSet hp;
  const auto ja = static_cast<std::size_t>(j);
  for (std::size_t a = 0; a < n; ++a) {
    if (a == ja || !reached[a]) {
      continue;
    }
    HpElement e;
    e.id = static_cast<StreamId>(a);
    if (adj_[a][ja] != 0) {
      e.mode = BlockMode::kDirect;
    } else {
      e.mode = BlockMode::kIndirect;
      for (std::size_t x = 0; x < n; ++x) {
        if (x != ja && x != a && reached[x] && adj_[a][x] != 0) {
          e.intermediates.push_back(static_cast<StreamId>(x));
        }
      }
      assert(!e.intermediates.empty() &&
             "indirect element must have a chain toward the stream");
    }
    hp.push_back(std::move(e));
  }
  return hp;
}

IncrementalAnalyzer::Handle IncrementalAnalyzer::recompute(
    const std::vector<StreamId>& ids, const Gate& gate) const {
  if (ids.empty()) {
    return -1;
  }
  OBS_SPAN("incremental_recompute");
  const DelayBoundCalculator calc(streams_, *this, config_);
  // Bounds are independent given the (now settled) digraph; fan them out
  // like the full-recompute path does, each into its own slot.  An index
  // past the lowest gate failure seen so far is skipped.  No index below
  // the lowest failure overall is ever skipped, so that failure is found
  // whatever the thread count or the schedule.
  std::atomic<std::size_t> first_failure{ids.size()};
  std::atomic<std::uint64_t> evaluated{0};
  util::parallel_for(ids.size(), config_.num_threads, [&](std::size_t k) {
    if (k > first_failure.load()) {
      return;
    }
    const StreamId j = ids[k];
    const Time bound =
        calc.calc_with_hp(j, hp_set(j), nullptr,
                          hints_[static_cast<std::size_t>(j)])
            .bound;
    bounds_[static_cast<std::size_t>(j)] = bound;
    ++evaluated;
    if (gate && !gate(streams_[j], bound)) {
      std::size_t seen = first_failure.load();
      while (k < seen && !first_failure.compare_exchange_weak(seen, k)) {
      }
    }
  });
  stats_.bound_recomputes += evaluated.load();
  const std::size_t failed = first_failure.load();
  return failed < ids.size()
             ? handles_[static_cast<std::size_t>(ids[failed])]
             : Handle{-1};
}

IncrementalAnalyzer::Mutation IncrementalAnalyzer::add_stream(
    MessageStream stream, Handle forced_handle, const Gate& gate) {
  const std::size_t n = streams_.size();
  const auto id = static_cast<StreamId>(n);
  stream.id = id;
  assert(stream.path.src == stream.src && stream.path.dst == stream.dst);

  const std::vector<StreamId> neighbours = overlap_candidates(stream);

  // Grow the digraph, then wire the newcomer's edges by the priority rule.
  for (auto& row : adj_) {
    row.push_back(0);
  }
  adj_.emplace_back(n + 1, 0);
  const bool same_blocks = config_.same_priority_blocks;
  for (const StreamId other : neighbours) {
    const auto& so = streams_[other];
    const auto o = static_cast<std::size_t>(other);
    if (so.priority > stream.priority ||
        (same_blocks && so.priority == stream.priority)) {
      adj_[o][n] = 1;
      ++stats_.edge_updates;
    }
    if (stream.priority > so.priority ||
        (same_blocks && so.priority == stream.priority)) {
      adj_[n][o] = 1;
      ++stats_.edge_updates;
    }
  }

  // Register in the overlap index and the population.
  for (const topo::ChannelId c : stream.path.channels) {
    by_channel_[static_cast<std::size_t>(c)].push_back(id);
  }
  by_src_[static_cast<std::size_t>(stream.src)].push_back(id);
  by_dst_[static_cast<std::size_t>(stream.dst)].push_back(id);

  Handle handle;
  if (forced_handle >= 0) {
    assert(index_.find(forced_handle) == index_.end() &&
           "forced handle collides with a live stream");
    handle = forced_handle;
    next_handle_ = std::max(next_handle_, forced_handle + 1);
  } else {
    handle = next_handle_++;
  }
  streams_.add(std::move(stream));
  handles_.push_back(handle);
  bounds_.push_back(kStale);
  hints_.push_back(kNoTime);
  index_.emplace(handle, id);

  // Dirty set: the streams the newcomer reaches (their HP sets gained the
  // newcomer and possibly new chains through it) plus the newcomer itself.
  std::vector<StreamId> dirty;
  if (force_full_) {
    dirty.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      dirty.push_back(static_cast<StreamId>(v));
    }
  } else {
    dirty = dirty_closure(id);
  }

  Mutation result;
  result.handle = handle;
  result.dirty.reserve(dirty.size());
  for (const StreamId v : dirty) {
    result.dirty.push_back(handles_[static_cast<std::size_t>(v)]);
  }
  stats_.dirty_marked += dirty.size();
  ++stats_.adds;

  undo_handle_ = handle;
  undo_bounds_.clear();
  for (const StreamId v : dirty) {
    undo_bounds_.emplace_back(v, bounds_[static_cast<std::size_t>(v)]);
    mark_stale(v);
  }
  if (gate) {
    // The newcomer first: a trial it fails stops before any victim.
    dirty.insert(dirty.begin(), id);
    result.broken = recompute(dirty, gate);
  }
  return result;
}

void IncrementalAnalyzer::mark_stale(StreamId id) {
  Time& bound = bounds_[static_cast<std::size_t>(id)];
  if (bound != kStale) {
    hints_[static_cast<std::size_t>(id)] = bound;
    bound = kStale;
  }
}

void IncrementalAnalyzer::undo_add([[maybe_unused]] Handle handle) {
  assert(handle >= 0 && handle == undo_handle_ &&
         handles_.back() == handle &&
         "undo_add only reverses the most recent add_stream");
  erase_stream(static_cast<StreamId>(streams_.size() - 1));
  for (const auto& [id, bound] : undo_bounds_) {
    bounds_[static_cast<std::size_t>(id)] = bound;
  }
  undo_handle_ = -1;
  ++stats_.removes;
}

void IncrementalAnalyzer::drop_and_shift(std::vector<StreamId>& list,
                                         StreamId id) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < list.size(); ++r) {
    if (list[r] == id) {
      continue;
    }
    list[w++] = list[r] > id ? list[r] - 1 : list[r];
  }
  list.resize(w);
}

void IncrementalAnalyzer::unindex(StreamId id) {
  // The removed stream appears only in the lists of its own resources,
  // but ids above it shift down everywhere.
  for (auto& list : by_channel_) {
    drop_and_shift(list, id);
  }
  for (auto& list : by_src_) {
    drop_and_shift(list, id);
  }
  for (auto& list : by_dst_) {
    drop_and_shift(list, id);
  }
}

void IncrementalAnalyzer::erase_stream(StreamId id) {
  for (const auto& row : adj_) {
    stats_.edge_updates += row[static_cast<std::size_t>(id)];
  }
  for (const std::size_t b : adj_[static_cast<std::size_t>(id)]) {
    stats_.edge_updates += b;
  }

  // Excise row and column `id`; survivors keep their relative order.
  adj_.erase(adj_.begin() + static_cast<std::ptrdiff_t>(id));
  for (auto& row : adj_) {
    row.erase(row.begin() + static_cast<std::ptrdiff_t>(id));
  }
  unindex(id);
  streams_.remove_stream(id);
  index_.erase(handles_[static_cast<std::size_t>(id)]);
  handles_.erase(handles_.begin() + static_cast<std::ptrdiff_t>(id));
  bounds_.erase(bounds_.begin() + static_cast<std::ptrdiff_t>(id));
  hints_.erase(hints_.begin() + static_cast<std::ptrdiff_t>(id));
  for (auto& [h, i] : index_) {
    if (i > id) {
      --i;
    }
  }
}

std::optional<IncrementalAnalyzer::Mutation> IncrementalAnalyzer::remove_stream(
    Handle handle) {
  const auto it = index_.find(handle);
  if (it == index_.end()) {
    return std::nullopt;
  }
  const StreamId id = it->second;
  const std::size_t n = streams_.size();

  // Capture the dirty set as handles before ids shift: the streams the
  // victim reached are exactly those whose HP sets lose it.
  Mutation result;
  result.handle = handle;
  std::vector<StreamId> dirty;
  if (force_full_) {
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<StreamId>(v) != id) {
        dirty.push_back(static_cast<StreamId>(v));
      }
    }
  } else {
    dirty = dirty_closure(id);
  }
  result.dirty.reserve(dirty.size());
  for (const StreamId v : dirty) {
    result.dirty.push_back(handles_[static_cast<std::size_t>(v)]);
    mark_stale(v);
  }

  erase_stream(id);
  undo_handle_ = -1;
  stats_.dirty_marked += dirty.size();
  ++stats_.removes;
  return result;
}

std::vector<IncrementalAnalyzer::Handle>
IncrementalAnalyzer::handles_on_channel(topo::ChannelId channel) const {
  std::vector<Handle> out;
  const auto& ids = by_channel_.at(static_cast<std::size_t>(channel));
  out.reserve(ids.size());
  for (const StreamId id : ids) {
    out.push_back(handles_[static_cast<std::size_t>(id)]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<Time> IncrementalAnalyzer::bound(Handle handle) const {
  const auto it = index_.find(handle);
  if (it == index_.end()) {
    return std::nullopt;
  }
  if (bounds_[static_cast<std::size_t>(it->second)] != kStale) {
    ++stats_.bound_cache_hits;
  }
  return bound_at(it->second);
}

Time IncrementalAnalyzer::bound_at(StreamId id) const {
  if (bounds_.at(static_cast<std::size_t>(id)) == kStale) {
    recompute({id});
  }
  return bounds_[static_cast<std::size_t>(id)];
}

void IncrementalAnalyzer::settle() const {
  std::vector<StreamId> stale;
  for (std::size_t j = 0; j < bounds_.size(); ++j) {
    if (bounds_[j] == kStale) {
      stale.push_back(static_cast<StreamId>(j));
    }
  }
  recompute(stale);
}

std::optional<BoundProvenance> IncrementalAnalyzer::explain(
    Handle handle) const {
  const auto it = index_.find(handle);
  if (it == index_.end()) {
    return std::nullopt;
  }
  OBS_SPAN("incremental_explain");
  const StreamId j = it->second;
  const DelayBoundCalculator calc(streams_, *this, config_);
  return explain_bound(calc, j, hp_set(j));
}

const MessageStream* IncrementalAnalyzer::find(Handle handle) const {
  const auto it = index_.find(handle);
  if (it == index_.end()) {
    return nullptr;
  }
  return &streams_[it->second];
}

StreamId IncrementalAnalyzer::id_of(Handle handle) const {
  const auto it = index_.find(handle);
  return it == index_.end() ? kNoStream : it->second;
}

IncrementalAnalyzer::Handle IncrementalAnalyzer::handle_of(StreamId id) const {
  return handles_.at(static_cast<std::size_t>(id));
}

std::vector<Time> IncrementalAnalyzer::full_recompute_bounds() const {
  const BlockingAnalysis blocking(
      streams_, BlockingOptions{config_.same_priority_blocks,
                                config_.ejection_port_overlap,
                                config_.injection_port_overlap});
  const DelayBoundCalculator calc(streams_, blocking, config_);
  std::vector<Time> bounds(streams_.size());
  util::parallel_for(streams_.size(), config_.num_threads, [&](std::size_t j) {
    bounds[j] = calc.calc(static_cast<StreamId>(j)).bound;
  });
  return bounds;
}

}  // namespace wormrt::core
