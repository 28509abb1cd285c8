#ifndef MVPTREE_DYNAMIC_MVP_FOREST_H_
#define MVPTREE_DYNAMIC_MVP_FOREST_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "metric/metric.h"

/// \file
/// Dynamic mvp-tree index — the paper's §6 open problem.
///
/// "Mvp-trees, like other distance based index structures, is a static index
/// structure. ... Handling update operations (insertion and deletion)
/// without major restructuring, and without violating the balanced structure
/// of the tree is an open problem."
///
/// MvpForest answers it with the classic static-to-dynamic transformation
/// (the Bentley-Saxe logarithmic method): live data is partitioned into a
/// small unindexed write buffer plus O(log n) static mvp-trees of roughly
/// doubling sizes. Inserts fill the buffer; a full buffer is merged with the
/// maximal run of occupied levels and rebuilt as ONE balanced static tree at
/// the next level — amortized O(log^2 n) distance computations per insert,
/// and every tree is always a freshly built, balanced mvp-tree, so the
/// balance guarantee of the static structure is preserved by construction.
/// Deletes are tombstones, physically dropped whenever their level is
/// rebuilt (plus a global compaction when tombstones exceed half the data).
///
/// Queries scan the buffer and then search every live tree as one member
/// list (core::SearchOver): range level by level, and k-NN over all levels
/// as one best-first frontier. Each tree skips its level's tombstones
/// inside the traversal, for range and k-NN alike, and every part writes
/// straight into the caller's answer. Results carry the stable ids that
/// Insert returned.

namespace mvp::dynamic {

/// An MvpForest's parameters, one type for every object and metric.
struct MvpForestOptions {
  /// Static-tree construction parameters (see core::MvpTree).
  core::MvpTreeOptions tree;
  /// Inserts buffered before the first level is built. Level i holds up to
  /// buffer_capacity * 2^i points.
  std::size_t buffer_capacity = 64;
  /// Compact everything when deleted points exceed this fraction of all
  /// stored points.
  double max_tombstone_fraction = 0.5;
};

template <typename Object, metric::MetricFor<Object> Metric>
class MvpForest {
 public:
  using Tree = core::MvpTree<Object, Metric>;
  using Request = core::SearchRequest<Object>;
  using Member = typename Tree::Member;
  using Options = MvpForestOptions;

  explicit MvpForest(Metric metric, Options options = Options{})
      : metric_(std::move(metric)), options_(std::move(options)) {
    MVP_DCHECK(options_.buffer_capacity >= 1);
  }

  /// Inserts an object; returns its stable id (used by Erase and reported
  /// in query results). Amortized O(log^2 n) distance computations. Vectors
  /// must all share one dimension of 1 to 2^32-1 (see BuildLevel).
  std::size_t Insert(Object obj) {
    const std::size_t id = state_.size();
    state_.push_back(kLive);
    buffer_.push_back(BufferEntry{std::move(obj), id});
    ++live_count_;
    if (buffer_.size() >= options_.buffer_capacity) {
      MergeBufferIntoLevels();
    }
    return id;
  }

  /// Tombstones an id. NotFound if the id was never issued or is already
  /// deleted. O(1); physical removal happens at the next rebuild touching
  /// its level.
  Status Erase(std::size_t id) {
    if (id >= state_.size() || state_[id] == kDeleted) {
      return Status::NotFound("no live object with this id");
    }
    state_[id] = kDeleted;
    --live_count_;
    // The buffer can drop the point immediately.
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (it->id == id) {
        buffer_.erase(it);
        break;
      }
    }
    for (auto& level : levels_) {
      if (level.has_value() && id >= level->first_id &&
          id < level->id_bound) {
        ++level->tombstones;
      }
    }
    MaybeCompact();
    return Status::OK();
  }

  /// All live objects within `radius` of `query`, sorted by distance then
  /// id (stable insert ids).
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const {
    return core::Answer(*this, Request{.object = query, .radius = radius},
                        stats);
  }

  /// The k nearest live objects, in the same order.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    return core::Answer(
        *this, Request{.kind = core::SearchKind::kKnn, .object = query, .k = k},
        stats);
  }

  /// The harvest form of both (core::SearchRequest), in stable ids: the
  /// buffer scan (ScanBuffer), then core::SearchOver of the levels'
  /// members (AppendMembers). Range searches the levels one by one and
  /// appends their hits. k-NN offers into the caller's heap and runs all
  /// levels as one frontier, so the search enters the most promising
  /// subtree of any level next, pruning against the best k found anywhere
  /// in the answer. The tombstones are the forest's exclusion, so
  /// `request.exclude` must be empty.
  void Search(const Request& request, core::SearchContext& context,
              std::vector<Neighbor>* out) const {
    if (request.kind == core::SearchKind::kKnn && request.k == 0) return;
    ScanBuffer(request, context.stats, out);
    std::deque<core::PartIds> parts;
    std::vector<Member> members;
    AppendMembers(request, &parts, &members);
    core::SearchOver(members, request, context, out);
  }

  /// Evaluates every buffered object, counting into `stats`: appends a
  /// range hit, or offers a k-NN candidate into the caller's heap `*out`,
  /// as `request.ids` maps its stable id.
  void ScanBuffer(const Request& request, SearchStats& stats,
                  std::vector<Neighbor>* out) const {
    MVP_DCHECK(!request.exclude);
    const bool knn = request.kind == core::SearchKind::kKnn;
    for (const auto& entry : buffer_) {
      const double d = metric_(request.object, entry.object);
      ++stats.distance_computations;
      const Neighbor hit{request.ids(entry.id), d};
      if (knn) {
        KnnOffer(*out, request.k, hit);
      } else if (d <= request.radius) {
        out->push_back(hit);
      }
    }
  }

  /// Appends every level's tree to `*members`, smallest level first, each
  /// at Nearest::kLoose, as core::SearchOver takes them. Each member skips
  /// its level's tombstones and reports `request.ids` of the level's stable
  /// ids through a core::PartIds appended to `*parts`, which must outlive
  /// the search.
  void AppendMembers(const Request& request, std::deque<core::PartIds>* parts,
                     std::vector<Member>* members) const {
    MVP_DCHECK(!request.exclude);
    const core::Exclusion deleted{this, [](const void* c, std::size_t id) {
                                    return static_cast<const MvpForest*>(c)
                                               ->state_[id] == kDeleted;
                                  }};
    for (const auto& level : levels_) {
      if (!level.has_value()) continue;
      const core::PartIds& part = parts->emplace_back(
          core::PartIds{&level->ids, deleted, request.ids});
      members->push_back(level->tree->AsMember(part.Exclude(), part.Ids(),
                                               core::Nearest::kLoose));
    }
  }

  std::size_t size() const { return live_count_; }

  /// True when `id` was issued and is still live. Lets a caller validate an
  /// erase BEFORE committing to it elsewhere (the dynamic overlay logs the
  /// erase to its WAL first, and must not log one that would fail).
  bool contains(std::size_t id) const {
    return id < state_.size() && state_[id] == kLive;
  }

  /// Visits every live object as (stable id, object), in no particular
  /// order. This is how the checkpoint/compaction path (dynamic overlay)
  /// drains a memtable into a rebuilt static index without reaching into
  /// the forest's level structure. A buffered object comes as a const
  /// Object&, a level's as its tree's object(id): a const Object&, or a
  /// metric::VectorView into a vector tree's rows. `Object(obj)` makes an
  /// owned copy of either.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const auto& entry : buffer_) {
      fn(entry.id, entry.object);
    }
    for (const auto& level : levels_) {
      if (!level.has_value()) continue;
      for (std::size_t local = 0; local < level->ids.size(); ++local) {
        const std::size_t id = level->ids[local];
        if (state_[id] == kLive) fn(id, level->tree->object(local));
      }
    }
  }

  /// The construction/merge parameters this forest runs with (the snapshot
  /// manifest records the static-tree options so a load can validate them).
  const Options& options() const { return options_; }

  /// Ids issued and later erased (whether or not physically dropped yet).
  std::size_t tombstone_count() const { return state_.size() - live_count_; }

  /// Number of static trees currently live (the "forest width").
  std::size_t num_trees() const {
    std::size_t n = 0;
    for (const auto& level : levels_) n += level.has_value() ? 1 : 0;
    return n;
  }
  std::size_t buffered() const { return buffer_.size(); }

  /// Total distance computations spent building/rebuilding static trees.
  std::uint64_t construction_distance_computations() const {
    return construction_distances_;
  }

  /// Rebuilds everything into a single balanced tree (also drops all
  /// tombstones). Useful before a read-heavy phase.
  void Compact() { RebuildAll(); }

  /// Persists the whole dynamic index: buffer, id state, and every level's
  /// static tree (via MvpTree::Serialize). The metric and Options are the
  /// caller's to re-supply at load time (only `tree` options are embedded,
  /// inside each serialized level).
  template <CodecFor<Object> Codec>
  Status Serialize(BinaryWriter* writer, const Codec& codec) const {
    writer->Write<std::uint32_t>(kMagic);
    writer->Write<std::uint32_t>(kFormatVersion);
    writer->Write<std::uint64_t>(state_.size());
    for (const std::uint8_t s : state_) writer->Write<std::uint8_t>(s);
    writer->Write<std::uint64_t>(buffer_.size());
    for (const auto& entry : buffer_) {
      writer->Write<std::uint64_t>(entry.id);
      codec.Write(*writer, entry.object);
    }
    writer->Write<std::uint64_t>(levels_.size());
    for (const auto& level : levels_) {
      writer->Write<std::uint8_t>(level.has_value() ? 1 : 0);
      if (!level.has_value()) continue;
      writer->Write<std::uint64_t>(level->tombstones);
      writer->Write<std::uint64_t>(level->first_id);
      writer->Write<std::uint64_t>(level->id_bound);
      writer->WriteVector(
          std::vector<std::uint64_t>(level->ids.begin(), level->ids.end()));
      MVP_RETURN_NOT_OK(level->tree->Serialize(writer, codec));
    }
    return Status::OK();
  }

  /// Reconstructs a serialized forest. `options` must match the build-time
  /// options (it governs future merges; the per-level tree options are read
  /// from the stream).
  template <CodecFor<Object> Codec>
  static Result<MvpForest> Deserialize(BinaryReader* reader, Metric metric,
                                       const Codec& codec,
                                       Options options = Options{}) {
    std::uint32_t magic = 0, version = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&magic));
    if (magic != kMagic) return Status::Corruption("bad mvp-forest magic");
    MVP_RETURN_NOT_OK(reader->Read<std::uint32_t>(&version));
    if (version != kFormatVersion) {
      return Status::NotSupported("unknown mvp-forest format version");
    }
    MvpForest forest(std::move(metric), std::move(options));
    std::uint64_t state_size = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&state_size));
    if (state_size > reader->remaining()) {
      return Status::Corruption("state size exceeds buffer");
    }
    forest.state_.resize(static_cast<std::size_t>(state_size));
    for (auto& s : forest.state_) {
      MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&s));
      if (s > kDeleted) return Status::Corruption("bad id state");
    }
    std::uint64_t buffer_size = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&buffer_size));
    if (buffer_size > state_size) {
      return Status::Corruption("buffer larger than issued ids");
    }
    forest.buffer_.resize(static_cast<std::size_t>(buffer_size));
    for (auto& entry : forest.buffer_) {
      std::uint64_t id = 0;
      MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&id));
      if (id >= state_size) return Status::Corruption("buffer id range");
      entry.id = static_cast<std::size_t>(id);
      MVP_RETURN_NOT_OK(codec.Read(*reader, &entry.object));
    }
    std::uint64_t level_count = 0;
    MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&level_count));
    if (level_count > 64) return Status::Corruption("too many levels");
    forest.levels_.resize(static_cast<std::size_t>(level_count));
    for (auto& slot : forest.levels_) {
      std::uint8_t present = 0;
      MVP_RETURN_NOT_OK(reader->Read<std::uint8_t>(&present));
      if (present == 0) continue;
      Level level;
      std::uint64_t tombstones = 0, first_id = 0, id_bound = 0;
      MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&tombstones));
      MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&first_id));
      MVP_RETURN_NOT_OK(reader->Read<std::uint64_t>(&id_bound));
      std::vector<std::uint64_t> raw_ids;
      MVP_RETURN_NOT_OK(reader->ReadVector(&raw_ids));
      level.tombstones = static_cast<std::size_t>(tombstones);
      level.first_id = static_cast<std::size_t>(first_id);
      level.id_bound = static_cast<std::size_t>(id_bound);
      level.ids.reserve(raw_ids.size());
      for (const std::uint64_t id : raw_ids) {
        if (id >= state_size) return Status::Corruption("level id range");
        level.ids.push_back(static_cast<std::size_t>(id));
      }
      auto tree = Tree::template Deserialize<Codec>(reader, forest.metric_,
                                                    codec);
      if (!tree.ok()) return tree.status();
      if (tree.value().size() != level.ids.size()) {
        return Status::Corruption("level tree size mismatches id map");
      }
      level.tree = std::make_unique<Tree>(std::move(tree).ValueOrDie());
      slot = std::move(level);
    }
    // Recompute the live count from the id states.
    forest.live_count_ = 0;
    for (const std::uint8_t s : forest.state_) {
      forest.live_count_ += s == kLive ? 1 : 0;
    }
    return forest;
  }

 private:
  static constexpr std::uint8_t kLive = 0;
  static constexpr std::uint8_t kDeleted = 1;
  static constexpr std::uint32_t kMagic = 0x46505641;  // "AVPF"
  static constexpr std::uint32_t kFormatVersion = 1;

  struct BufferEntry {
    Object object;
    std::size_t id;
  };

  struct Level {
    std::unique_ptr<Tree> tree;
    std::vector<std::size_t> ids;  ///< tree-local id -> stable id
    std::size_t tombstones = 0;
    // [first_id, id_bound): stable-id range covered by this level, used to
    // attribute Erase calls to levels cheaply. Levels always hold
    // contiguous id ranges because merges take whole levels.
    std::size_t first_id = 0;
    std::size_t id_bound = 0;
  };

  void MergeBufferIntoLevels() {
    // Gather buffer + maximal run of occupied levels.
    std::vector<BufferEntry> batch = std::move(buffer_);
    buffer_.clear();
    std::size_t target = 0;
    while (target < levels_.size() && levels_[target].has_value()) {
      DrainLevel(*levels_[target], batch);
      levels_[target].reset();
      ++target;
    }
    BuildLevel(target, std::move(batch));
  }

  void DrainLevel(Level& level, std::vector<BufferEntry>& batch) {
    for (std::size_t local = 0; local < level.ids.size(); ++local) {
      const std::size_t id = level.ids[local];
      if (state_[id] != kLive) continue;
      batch.push_back(BufferEntry{Object(level.tree->object(local)), id});
    }
  }

  void BuildLevel(std::size_t target, std::vector<BufferEntry> batch) {
    if (batch.empty()) return;
    // Keep id ranges contiguous per level for cheap Erase attribution.
    std::sort(batch.begin(), batch.end(),
              [](const BufferEntry& a, const BufferEntry& b) {
                return a.id < b.id;
              });
    std::vector<Object> objects;
    objects.reserve(batch.size());
    Level level;
    level.ids.reserve(batch.size());
    level.first_id = batch.front().id;
    level.id_bound = batch.back().id + 1;
    for (auto& entry : batch) {
      objects.push_back(std::move(entry.object));
      level.ids.push_back(entry.id);
    }
    auto built = Tree::Build(std::move(objects), metric_, options_.tree);
    // Build fails only on unusable options or, for vectors, on a batch that
    // does not share one dimension of 1 to 2^32-1. The options are the
    // caller's to get right, and so is the dimension: a forest is handed
    // vectors of one dimension (DynamicOverlay refuses any other before it
    // logs the insert).
    MVP_DCHECK(built.ok());
    level.tree = std::make_unique<Tree>(std::move(built).ValueOrDie());
    construction_distances_ +=
        level.tree->Stats().construction_distance_computations;
    if (levels_.size() <= target) levels_.resize(target + 1);
    levels_[target] = std::move(level);
  }

  void MaybeCompact() {
    std::size_t stored = buffer_.size();
    std::size_t dead = 0;
    for (const auto& level : levels_) {
      if (!level.has_value()) continue;
      stored += level->ids.size();
      dead += level->tombstones;
    }
    if (stored > 0 &&
        static_cast<double>(dead) >
            options_.max_tombstone_fraction * static_cast<double>(stored)) {
      RebuildAll();
    }
  }

  void RebuildAll() {
    std::vector<BufferEntry> batch = std::move(buffer_);
    buffer_.clear();
    std::size_t target = 0;
    for (auto& level : levels_) {
      if (!level.has_value()) continue;
      DrainLevel(*level, batch);
      level.reset();
    }
    levels_.clear();
    // Place the compacted tree at the level matching its size so the
    // doubling invariant (level i <= buffer * 2^i points) keeps holding.
    std::size_t capacity = options_.buffer_capacity;
    while (capacity < batch.size()) {
      capacity *= 2;
      ++target;
    }
    BuildLevel(target, std::move(batch));
  }

  Metric metric_;
  Options options_;
  std::vector<BufferEntry> buffer_;
  std::vector<std::optional<Level>> levels_;
  std::vector<std::uint8_t> state_;  ///< per issued id: live / deleted
  std::size_t live_count_ = 0;
  std::uint64_t construction_distances_ = 0;
};

}  // namespace mvp::dynamic

#endif  // MVPTREE_DYNAMIC_MVP_FOREST_H_
