// Corpus seed generator for the fuzz harnesses.
//
// Emits one well-formed (and a few deliberately damaged) input per harness
// entry point under <corpus-root>/<harness>/, using the repo's own
// encoders — so seeds track the wire formats by construction instead of by
// hand-maintained hex. When a repo root is given, the committed golden
// snapshot fixtures (tests/testdata/golden_flat and golden_delta) are
// re-packaged as seeds too, tying the corpus to the exact bytes the format
// tests bless.
//
// Usage: fuzz_make_corpus <corpus-root> [repo-root]
//
// Regenerate after any format change:
//   ./build/fuzz/fuzz_make_corpus fuzz/corpus .
// then commit the rewritten fuzz/corpus/ contents (docs/static_analysis.md).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/serialize.h"
#include "common/status.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "net/wire.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/format.h"
#include "snapshot/manifest.h"
#include "wal/wal.h"

namespace {

namespace fs = std::filesystem;
using mvp::BinaryWriter;

#define CORPUS_CHECK(cond, what)                                  \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "make_corpus: %s\n", what);            \
      std::exit(1);                                               \
    }                                                             \
  } while (0)

void WriteSeedRaw(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CORPUS_CHECK(out.good(), path.c_str());
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  CORPUS_CHECK(out.good(), path.c_str());
}

/// Most harnesses take [u8 selector][body]; this prepends the selector.
void WriteSeed(const fs::path& path, std::uint8_t selector,
               const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(body.size() + 1);
  bytes.push_back(selector);
  bytes.insert(bytes.end(), body.begin(), body.end());
  WriteSeedRaw(path, bytes);
}

std::vector<std::uint8_t> Frame(const std::vector<std::uint8_t>& payload) {
  BinaryWriter out;
  out.Write<std::uint32_t>(mvp::net::kFrameMagic);
  out.Write<std::uint32_t>(static_cast<std::uint32_t>(payload.size()));
  out.Write<std::uint32_t>(mvp::Crc32c(payload.data(), payload.size()));
  std::vector<std::uint8_t> bytes = std::move(out).TakeBuffer();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

mvp::net::WireQuery SampleQuery() {
  mvp::net::WireQuery query;
  query.kind = 1;  // k-NN
  query.k = 5;
  query.radius = 0.75;
  query.point = {0.1, 0.2, 0.3, 0.4};
  return query;
}

/// Well-framed queries that decode cleanly but that no collection can
/// answer exactly, named for their seed files: the server must refuse each
/// (serve::RunBatch's ValidateQuery) without searching.
struct BadQuery {
  const char* name;
  mvp::net::WireQuery query;
};

std::vector<BadQuery> BadQueries() {
  std::vector<BadQuery> bad;
  mvp::net::WireQuery range = SampleQuery();
  range.kind = 0;  // range
  range.radius = std::numeric_limits<double>::quiet_NaN();
  bad.push_back({"nan_radius", range});
  range.radius = -0.5;
  bad.push_back({"negative_radius", range});
  mvp::net::WireQuery knn = SampleQuery();
  knn.point[1] = std::numeric_limits<double>::quiet_NaN();
  bad.push_back({"nan_coordinate", knn});
  knn.point[1] = std::numeric_limits<double>::infinity();
  bad.push_back({"inf_coordinate", knn});
  knn = SampleQuery();
  knn.point.push_back(0.5);  // the loopback collection holds 4-d points
  bad.push_back({"wrong_dimension", knn});
  return bad;
}

void EmitWireSeeds(const fs::path& dir) {
  {
    BinaryWriter w;
    mvp::net::EncodeQuery(SampleQuery(), &w);
    WriteSeed(dir / "query.bin", 0, w.buffer());
  }
  for (const BadQuery& bad : BadQueries()) {
    BinaryWriter w;
    mvp::net::EncodeQuery(bad.query, &w);
    WriteSeed(dir / (std::string("query_") + bad.name + ".bin"), 0,
              w.buffer());
  }
  {
    mvp::net::WireOutcome outcome;
    outcome.partial = true;
    outcome.latency_ns = 12345;
    outcome.distance_computations = 64;
    outcome.neighbors = {{3, 0.5}, {7, 1.25}};
    BinaryWriter w;
    mvp::net::EncodeOutcome(outcome, &w);
    WriteSeed(dir / "outcome.bin", 1, w.buffer());
  }
  {
    mvp::serve::ServeStatsSnapshot snap;
    snap.queries = 10;
    snap.ok = 8;
    snap.partial = 2;
    snap.distance_computations = 4096;
    snap.p50 = std::chrono::nanoseconds(1000);
    snap.p99 = std::chrono::nanoseconds(9000);
    BinaryWriter w;
    mvp::net::EncodeStats(snap, &w);
    WriteSeed(dir / "stats.bin", 2, w.buffer());
  }
  {
    mvp::net::WireCollectionInfo info;
    info.name = "vectors";
    info.metric = "l2";
    info.dynamic = true;
    info.generation = 3;
    info.size = 48;
    BinaryWriter w;
    mvp::net::EncodeCollectionInfo(info, &w);
    WriteSeed(dir / "collection_info.bin", 3, w.buffer());
  }
  {
    mvp::net::WireWalSegment segment;
    segment.leader_epoch = 2;
    segment.floor_seq = 1;
    segment.generation = 4;
    segment.applied_seq = 9;
    mvp::wal::WalRecord record;
    record.op = mvp::wal::WalOp::kInsert;
    record.seq = 9;
    record.id = 17;
    record.payload = {1, 2, 3, 4};
    segment.records.push_back(record);
    BinaryWriter w;
    mvp::net::EncodeWalSegment(segment, &w);
    WriteSeed(dir / "wal_segment.bin", 4, w.buffer());
  }
  {
    mvp::net::WireReadiness readiness;
    readiness.state = 1;
    readiness.leader_epoch = 5;
    readiness.generation_lag = 2;
    BinaryWriter w;
    mvp::net::EncodeReadiness(readiness, &w);
    WriteSeed(dir / "readiness.bin", 5, w.buffer());
  }
  {
    BinaryWriter w;
    mvp::net::EncodeResponseStatus(
        mvp::Status::NotFound("no collection 'x'"), &w);
    WriteSeed(dir / "response_status.bin", 6, w.buffer());
  }
  {
    BinaryWriter ping;
    ping.Write<std::uint32_t>(
        static_cast<std::uint32_t>(mvp::net::Op::kPing));
    const std::vector<std::uint8_t> frame = Frame(ping.buffer());
    WriteSeed(dir / "frame_ping.bin", 7, frame);
    // A torn header+payload prefix: must fail as IOError, cleanly.
    WriteSeed(dir / "frame_torn.bin", 7,
              {frame.begin(), frame.begin() + 10});
  }
  WriteSeed(dir / "frame_roundtrip.bin", 8,
            {'m', 'v', 'p', '-', 'w', 'i', 'r', 'e'});
}

/// One serialized single-shard mvp-tree stream over a tiny pinned dataset
/// — the exact input shape BuildFlatArena reads.
std::vector<std::uint8_t> SampleTreeStream() {
  using Index =
      mvp::serve::ShardedMvpIndex<mvp::metric::Vector, mvp::metric::L2>;
  Index::Options options;
  options.num_shards = 1;
  options.tree.order = 3;
  options.tree.leaf_capacity = 4;
  options.tree.num_path_distances = 2;
  auto built = Index::Build(mvp::dataset::UniformVectors(32, 4, 7),
                            mvp::metric::L2(), options);
  CORPUS_CHECK(built.ok(), "sample index build failed");
  BinaryWriter stream;
  CORPUS_CHECK(
      built.value().shard(0).Serialize(&stream, mvp::VectorCodec{}).ok(),
      "sample tree serialize failed");
  return std::move(stream).TakeBuffer();
}

void EmitFlatSeeds(const fs::path& dir,
                   const std::vector<std::uint8_t>& stream) {
  // tree_stream_path_over_p.bin is frozen: this stream with p rewritten to
  // 0, so its entries keep more PATH distances than the header allows —
  // once accepted by both stream entry points, now Corruption in both.
  WriteSeed(dir / "tree_stream.bin", 0, stream);
  // The same stream with object 1's vector cut to 3 of its 4 values. A
  // vector tree keeps one row-major slab, so both entry points reject the
  // ragged stream as Corruption (the builder once refused it with
  // InvalidArgument while the heap tree accepted it).
  constexpr std::size_t kRow1 = 29 + 8 + 4 * sizeof(double);  // header, row 0
  std::vector<std::uint8_t> ragged = stream;
  const std::uint64_t ragged_dim = 3;
  std::memcpy(ragged.data() + kRow1, &ragged_dim, sizeof(ragged_dim));
  const auto row1 = ragged.begin() + static_cast<std::ptrdiff_t>(kRow1 + 8);
  ragged.erase(row1 + static_cast<std::ptrdiff_t>(3 * sizeof(double)),
               row1 + static_cast<std::ptrdiff_t>(4 * sizeof(double)));
  WriteSeed(dir / "tree_stream_ragged.bin", 0, ragged);
  // The arena encoding of the same tree, with a bit-flipped and a torn
  // variant so the parser's structural validation is seeded, not just the
  // happy path. arena_v1.bin, arena_v1_bitflip.bin and
  // arena_v1_shared_path.bin are frozen v1 seeds of this tree, and
  // arena_v2.bin, arena_v2_bitflip.bin, arena_v2_torn.bin and
  // arena_v2_root_no_vp2.bin frozen v2 seeds of it, the family below as the
  // v2 writer emitted it. arena_v3*.bin are the whole family below as the
  // v3 writer emitted it (arena_v3.bin, _bitflip, _torn, _root_no_vp2,
  // _vp_row_in_entries, _vp_row_past_n and _vp_rows_out_of_preorder). No
  // writer emits v1, v2 or v3 any more, so those seeds are not
  // regenerated.
  auto arena =
      mvp::snapshot::flat::BuildFlatArena(stream.data(), stream.size());
  CORPUS_CHECK(arena.ok(), "sample arena build failed");
  WriteSeed(dir / "arena.bin", 1, arena.value());
  std::vector<std::uint8_t> corrupt = arena.value();
  corrupt[corrupt.size() / 2] ^= 0x40;
  WriteSeed(dir / "arena_bitflip.bin", 1, corrupt);
  WriteSeed(dir / "arena_torn.bin", 1,
            {arena.value().begin(),
             arena.value().begin() +
                 static_cast<std::ptrdiff_t>(arena.value().size() * 3 / 4)});
  // The root is internal; clearing its second-vantage-point flag leaves a
  // node the traversal cannot search, which the parser must refuse.
  std::vector<std::uint8_t> no_vp2 = arena.value();
  mvp::snapshot::flat::FlatHeaderRec header;
  std::memcpy(&header, no_vp2.data(), sizeof(header));
  no_vp2[static_cast<std::size_t>(header.nodes_offset)] &=
      static_cast<std::uint8_t>(~mvp::core::kNodeHasVp2);
  WriteSeed(dir / "arena_root_no_vp2.bin", 1, no_vp2);
  // v3 nodes record their vp1's row, and the vp rows must tile
  // [entry_count, object_count) in node preorder: the root's vp row moved
  // into the entry rows, past the object count, and swapped with the next
  // node's, each of which the parser must refuse.
  const auto vp_row_at = [&](std::size_t n) {
    return static_cast<std::size_t>(header.nodes_offset) +
           n * sizeof(mvp::core::NodeRec) +
           offsetof(mvp::core::NodeRec, vp_row);
  };
  const auto with_rows = [&](std::uint32_t root_row, std::uint32_t next_row) {
    std::vector<std::uint8_t> bytes = arena.value();
    std::memcpy(bytes.data() + vp_row_at(0), &root_row, sizeof(root_row));
    std::memcpy(bytes.data() + vp_row_at(1), &next_row, sizeof(next_row));
    return bytes;
  };
  std::uint32_t root_row = 0, next_row = 0;
  std::memcpy(&root_row, arena.value().data() + vp_row_at(0),
              sizeof(root_row));
  std::memcpy(&next_row, arena.value().data() + vp_row_at(1),
              sizeof(next_row));
  WriteSeed(dir / "arena_vp_row_in_entries.bin", 1, with_rows(0, next_row));
  WriteSeed(dir / "arena_vp_row_past_n.bin", 1,
            with_rows(static_cast<std::uint32_t>(header.object_count),
                      next_row));
  WriteSeed(dir / "arena_vp_rows_out_of_preorder.bin", 1,
            with_rows(next_row, root_row));
  // One bit of the first entry's float D1 flipped: the arena still parses
  // and opens, and ValidateInvariants must name that entry.
  mvp::snapshot::flat::FlatHeaderExtRec ext;
  std::memcpy(&ext, arena.value().data() + sizeof(header), sizeof(ext));
  CORPUS_CHECK(header.entry_count > 0, "sample arena has no leaf entries");
  std::vector<std::uint8_t> d1_flip = arena.value();
  d1_flip[static_cast<std::size_t>(ext.d1_offset)] ^= 0x01;
  WriteSeed(dir / "arena_d1_bitflip.bin", 1, d1_flip);
  // A 3-point tree is one root leaf with one entry, and a root leaf has no
  // vantage points above it to keep PATH distances to. Its entry given a
  // 2-value slab (p = 2, so the slab fits the header and tiles the pool)
  // must be refused: the stream writer would have no vantage point to
  // recompute those distances from.
  mvp::core::MvpTreeOptions options;
  options.num_path_distances = 2;
  auto leaf = mvp::core::MvpTree<mvp::metric::Vector, mvp::metric::L2>::Build(
      mvp::dataset::UniformVectors(3, 4, 7), mvp::metric::L2(), options);
  CORPUS_CHECK(leaf.ok() && leaf.value().arrays().node_count == 1,
               "root-leaf tree build failed");
  mvp::core::TreeArrays over_depth = leaf.value().arrays();
  const mvp::core::LeafPathRec leafpath{0, 2, 0};
  const float path[2] = {0.5f, 0.5f};
  over_depth.leafpaths = &leafpath;
  over_depth.path = path;
  over_depth.path_count = 2;
  WriteSeed(dir / "arena_path_over_depth.bin", 1,
            mvp::snapshot::flat::BuildFlatArena(
                options, leaf.value().rows(), leaf.value().dim(), over_depth));
}

void EmitWalSeeds(const fs::path& dir) {
  std::vector<std::uint8_t> log;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    mvp::wal::WalRecord record;
    record.op = seq == 2 ? mvp::wal::WalOp::kErase : mvp::wal::WalOp::kInsert;
    record.seq = seq;
    record.id = 100 + seq;
    if (record.op == mvp::wal::WalOp::kInsert) {
      record.payload = {9, 8, 7, 6, 5};
    }
    mvp::wal::EncodeRecord(record, &log);
  }
  WriteSeedRaw(dir / "valid.bin", log);

  std::vector<std::uint8_t> torn = log;
  mvp::wal::WalRecord tail;
  tail.op = mvp::wal::WalOp::kInsert;
  tail.seq = 4;
  tail.id = 104;
  tail.payload = {1, 1, 1};
  mvp::wal::EncodeRecord(tail, &torn);
  torn.resize(torn.size() - 7);  // crash mid-append
  WriteSeedRaw(dir / "torn_tail.bin", torn);

  std::vector<std::uint8_t> badcrc = log;
  badcrc[badcrc.size() / 2] ^= 0x01;
  WriteSeedRaw(dir / "crc_flip.bin", badcrc);
}

void EmitSnapshotSeeds(const fs::path& dir,
                       const std::vector<std::uint8_t>& arena) {
  {
    mvp::snapshot::SnapshotManifest manifest;
    manifest.object_count = 48;
    manifest.num_chunks = 2;
    manifest.payload_bytes = 4096;
    manifest.num_shards = 2;
    manifest.order = 3;
    manifest.leaf_capacity = 4;
    manifest.num_path_distances = 2;
    manifest.seed = 7;
    WriteSeed(dir / "manifest_v1.bin", 0, manifest.Serialize());
    manifest.index_kind = mvp::snapshot::IndexKind::kDynamicDelta;
    manifest.base_generation = 1;
    manifest.last_applied_seq = 42;
    manifest.next_stable_id = 64;
    manifest.leader_epoch = 3;
    WriteSeed(dir / "manifest_v3.bin", 0, manifest.Serialize());
    manifest.index_kind = mvp::snapshot::IndexKind::kShardedMvpIndex;
    manifest.partition = mvp::ShardPartition{1, 5, {{0.0, 0.4}, {0.4, 1.3}}};
    WriteSeed(dir / "manifest_v4.bin", 0, manifest.Serialize());
    // A compaction's flat generation: lineage fields on kind 3.
    manifest.index_kind = mvp::snapshot::IndexKind::kFlatShardedMvpIndex;
    WriteSeed(dir / "manifest_v5.bin", 0, manifest.Serialize());
  }
  {
    mvp::snapshot::ContainerWriter writer;
    writer.AddChunk(mvp::snapshot::ChunkKind::kShardTree,
                    std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5, 6, 7});
    BinaryWriter payload;
    payload.Write<std::uint64_t>(0);  // shard index, then the arena
    std::vector<std::uint8_t> bytes = std::move(payload).TakeBuffer();
    bytes.insert(bytes.end(), arena.begin(), arena.end());
    writer.AddChunk(mvp::snapshot::ChunkKind::kFlatShard, std::move(bytes),
                    8);
    WriteSeed(dir / "container.bin", 1, std::move(writer).Finalize().Bytes());
  }
}

void EmitServerSeeds(const fs::path& dir) {
  BinaryWriter ping;
  ping.Write<std::uint32_t>(static_cast<std::uint32_t>(mvp::net::Op::kPing));
  WriteSeed(dir / "raw_ping_frame.bin", 0, Frame(ping.buffer()));
  WriteSeed(dir / "framed_ping.bin", 1, ping.buffer());

  BinaryWriter list;
  list.Write<std::uint32_t>(
      static_cast<std::uint32_t>(mvp::net::Op::kListCollections));
  WriteSeed(dir / "framed_list.bin", 1, list.buffer());

  BinaryWriter query;
  query.Write<std::uint32_t>(
      static_cast<std::uint32_t>(mvp::net::Op::kQuery));
  query.WriteString("fuzz");
  mvp::net::EncodeQuery(SampleQuery(), &query);
  WriteSeed(dir / "framed_query.bin", 1, query.buffer());

  BinaryWriter batch;
  batch.Write<std::uint32_t>(
      static_cast<std::uint32_t>(mvp::net::Op::kBatchQuery));
  batch.WriteString("fuzz");
  batch.Write<std::uint64_t>(1);
  mvp::net::EncodeQuery(SampleQuery(), &batch);
  WriteSeed(dir / "framed_batch.bin", 1, batch.buffer());

  for (const BadQuery& bad : BadQueries()) {
    BinaryWriter framed;
    framed.Write<std::uint32_t>(
        static_cast<std::uint32_t>(mvp::net::Op::kQuery));
    framed.WriteString("fuzz");
    mvp::net::EncodeQuery(bad.query, &framed);
    WriteSeed(dir / (std::string("framed_query_") + bad.name + ".bin"), 1,
              framed.buffer());
  }

  // Not our protocol at all: exercises the bad-magic rejection path.
  const std::string http = "GET / HTTP/1.0\r\n\r\n";
  WriteSeed(dir / "raw_http.bin", 0,
            std::vector<std::uint8_t>(http.begin(), http.end()));
}

/// Re-packages the committed golden snapshot fixtures (golden_flat and the
/// frozen golden_delta) as corpus seeds, so the corpus covers the exact
/// bytes the golden-format tests bless.
void EmitGoldenSeeds(const fs::path& corpus, const fs::path& repo) {
  const fs::path gen = repo / "tests/testdata/golden_flat/gen-000001";
  auto manifest = mvp::ReadFile((gen / "MANIFEST").string());
  auto container = mvp::ReadFile((gen / "shards.mvps").string());
  if (!manifest.ok() || !container.ok()) {
    std::fprintf(stderr,
                 "make_corpus: golden fixtures not found under %s; "
                 "skipping golden seeds\n",
                 gen.c_str());
    return;
  }
  WriteSeed(corpus / "snapshot" / "golden_manifest.bin", 0, manifest.value());
  WriteSeed(corpus / "snapshot" / "golden_container.bin", 1,
            container.value());
  // The frozen delta generation's container: a kForest chunk of MVPT
  // streams beside the stable-id and tombstone chunks.
  const fs::path delta =
      repo / "tests/testdata/golden_delta/gen-000002/shards.mvps";
  auto delta_container = mvp::ReadFile(delta.string());
  CORPUS_CHECK(delta_container.ok(), "golden delta container not found");
  WriteSeed(corpus / "snapshot" / "golden_delta_container.bin", 1,
            delta_container.value());

  // Extract the golden flat arena out of its container chunk (payload is
  // [u64 shard index][arena]) and seed the arena harness with it.
  // golden_arena_huge_p.bin, the same arena with p = 2^31 - 1, is frozen
  // next to it (docs/static_analysis.md).
  auto parsed = mvp::snapshot::ContainerReader::Parse(
      container.value().data(), container.value().size());
  CORPUS_CHECK(parsed.ok(), "golden container failed to parse");
  const auto chunks =
      parsed.value().ChunksOfKind(mvp::snapshot::ChunkKind::kFlatShard);
  CORPUS_CHECK(!chunks.empty(), "golden container has no flat shard");
  const auto [payload, length] = parsed.value().chunk_payload(chunks[0]);
  CORPUS_CHECK(length > 8, "golden flat chunk too small");
  WriteSeed(corpus / "flat_arena" / "golden_arena.bin", 1,
            std::vector<std::uint8_t>(payload + 8, payload + length));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <corpus-root> [repo-root]\n", argv[0]);
    return 2;
  }
  const fs::path corpus(argv[1]);
  EmitWireSeeds(corpus / "wire");
  const std::vector<std::uint8_t> stream = SampleTreeStream();
  EmitFlatSeeds(corpus / "flat_arena", stream);
  EmitWalSeeds(corpus / "wal");
  auto arena =
      mvp::snapshot::flat::BuildFlatArena(stream.data(), stream.size());
  CORPUS_CHECK(arena.ok(), "arena build failed");
  EmitSnapshotSeeds(corpus / "snapshot", arena.value());
  EmitServerSeeds(corpus / "server_loopback");
  if (argc == 3) EmitGoldenSeeds(corpus, fs::path(argv[2]));
  std::printf("corpus written under %s\n", corpus.c_str());
  return 0;
}
