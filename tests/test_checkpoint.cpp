// Kill-safe resumable preprocessing: CheckpointManager semantics
// (fingerprint binding, corruption tolerance, invalidation), stage-by-stage
// resume of BuildDecomposition, SlashBurn round resume, and SIGKILL
// death tests proving a killed-and-resumed run produces a bit-identical
// model.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/faultinject.hpp"
#include "common/fileio.hpp"
#include "common/sections.hpp"
#include "core/bepi.hpp"
#include "core/checkpoint.hpp"
#include "core/decomposition.hpp"
#include "graph/slashburn.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override {
    FaultInjector::Global().Reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  /// Fresh per-test checkpoint directory.
  const std::string& Dir() {
    if (dir_.empty()) {
      const testing::TestInfo* info =
          testing::UnitTest::GetInstance()->current_test_info();
      dir_ = testing::TempDir() + "/ckpt_" + info->name();
      std::filesystem::remove_all(dir_);
    }
    return dir_;
  }

 private:
  std::string dir_;
};

// ---------------------------------------------------------------------------
// CheckpointManager

TEST_F(CheckpointTest, WriteReadRoundTrip) {
  CheckpointManager manager(Dir());
  manager.Bind(0x1234);
  ASSERT_TRUE(
      manager.Write("stage-a", {{"counts", "1 2 3\n"}, {"blob", ""}}).ok());
  auto sections = manager.Read("stage-a");
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ(sections->at("counts"), "1 2 3\n");
  EXPECT_EQ(sections->at("blob"), "");
  EXPECT_EQ(manager.checkpoints_written(), 1);
  EXPECT_EQ(manager.checkpoints_resumed(), 1);
}

TEST_F(CheckpointTest, MissingStageIsNotFound) {
  CheckpointManager manager(Dir());
  EXPECT_EQ(manager.Read("never-written").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointTest, InvalidateRemovesCheckpoint) {
  CheckpointManager manager(Dir());
  ASSERT_TRUE(manager.Write("stage-a", {{"x", "y"}}).ok());
  ASSERT_TRUE(manager.Read("stage-a").ok());
  manager.Invalidate("stage-a");
  EXPECT_EQ(manager.Read("stage-a").status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, FingerprintMismatchReadsAsNotFound) {
  {
    CheckpointManager manager(Dir());
    manager.Bind(0xAAAA);
    ASSERT_TRUE(manager.Write("stage-a", {{"x", "y"}}).ok());
  }
  CheckpointManager other(Dir());
  other.Bind(0xBBBB);
  EXPECT_EQ(other.Read("stage-a").status().code(), StatusCode::kNotFound);
  other.Bind(0xAAAA);
  EXPECT_TRUE(other.Read("stage-a").ok());
}

TEST_F(CheckpointTest, CorruptedCheckpointReadsAsNotFound) {
  CheckpointManager manager(Dir());
  ASSERT_TRUE(manager.Write("stage-a", {{"x", "payload to corrupt"}}).ok());
  // Flip one byte in the middle of the checkpoint file.
  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(Dir())) {
    if (entry.path().extension() == ".ckpt") file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    const auto size = std::filesystem::file_size(file);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_EQ(manager.Read("stage-a").status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Resumable BuildDecomposition

void ExpectCsrEq(const CsrMatrix& a, const CsrMatrix& b, const char* what) {
  EXPECT_EQ(a.rows(), b.rows()) << what;
  EXPECT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(a.values(), b.values()) << what;
}

void ExpectDecompositionEq(const HubSpokeDecomposition& a,
                           const HubSpokeDecomposition& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.n1, b.n1);
  EXPECT_EQ(a.n2, b.n2);
  EXPECT_EQ(a.n3, b.n3);
  EXPECT_EQ(a.perm, b.perm);
  EXPECT_EQ(a.block_sizes, b.block_sizes);
  EXPECT_EQ(a.product_nnz, b.product_nnz);
  ExpectCsrEq(a.h11, b.h11, "h11");
  ExpectCsrEq(a.h12, b.h12, "h12");
  ExpectCsrEq(a.h21, b.h21, "h21");
  ExpectCsrEq(a.h22, b.h22, "h22");
  ExpectCsrEq(a.h31, b.h31, "h31");
  ExpectCsrEq(a.h32, b.h32, "h32");
  ExpectCsrEq(a.l1_inv, b.l1_inv, "l1_inv");
  ExpectCsrEq(a.u1_inv, b.u1_inv, "u1_inv");
  ExpectCsrEq(a.schur, b.schur, "schur");
}

DecompositionOptions TestDecompositionOptions() {
  DecompositionOptions options;
  options.checkpoint_interval_seconds = 0;  // snapshot every round / block
  return options;
}

TEST_F(CheckpointTest, CheckpointedBuildMatchesScratchBitwise) {
  Graph g = test::SmallRmat(130, 560, 0.25, 3001);
  const DecompositionOptions options = TestDecompositionOptions();

  auto scratch = BuildDecomposition(g, options, nullptr);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  CheckpointManager manager(Dir());
  manager.Bind(PreprocessFingerprint(g, "tag"));
  auto checkpointed = BuildDecomposition(g, options, nullptr, &manager);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
  EXPECT_GT(manager.checkpoints_written(), 0);
  EXPECT_EQ(manager.checkpoints_resumed(), 0);
  ExpectDecompositionEq(*scratch, *checkpointed);

  // A second run over the same directory resumes every stage and still
  // produces the identical decomposition.
  CheckpointManager resumer(Dir());
  resumer.Bind(PreprocessFingerprint(g, "tag"));
  auto resumed = BuildDecomposition(g, options, nullptr, &resumer);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // reorder + factor + schur (deadend/slashburn are superseded by reorder).
  EXPECT_EQ(resumer.checkpoints_resumed(), 3);
  EXPECT_EQ(resumer.checkpoints_written(), 0);
  ExpectDecompositionEq(*scratch, *resumed);
}

TEST_F(CheckpointTest, ResumeFromEachStagePrefixMatchesScratch) {
  Graph g = test::SmallRmat(110, 470, 0.2, 3007);
  const DecompositionOptions options = TestDecompositionOptions();
  auto scratch = BuildDecomposition(g, options, nullptr);
  ASSERT_TRUE(scratch.ok());

  // Invalidate progressively longer suffixes of the stage chain and rerun:
  // every prefix of durable state must complete to the same result.
  const std::vector<std::vector<std::string>> suffixes = {
      {"schur"},
      {"schur", "factor"},
      {"schur", "factor", "reorder"},
  };
  for (const auto& suffix : suffixes) {
    std::filesystem::remove_all(Dir());
    CheckpointManager full(Dir());
    full.Bind(PreprocessFingerprint(g, "tag"));
    ASSERT_TRUE(BuildDecomposition(g, options, nullptr, &full).ok());
    for (const std::string& stage : suffix) full.Invalidate(stage);

    CheckpointManager partial(Dir());
    partial.Bind(PreprocessFingerprint(g, "tag"));
    auto resumed = BuildDecomposition(g, options, nullptr, &partial);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectDecompositionEq(*scratch, *resumed);
  }
}

constexpr char kCheckpointMagic[] = "BEPI-CKPT v3";

std::string CheckpointPath(const std::string& dir, const std::string& stage) {
  return dir + "/" + stage + ".ckpt";
}

std::string ReadCheckpoint(const std::string& dir, const std::string& stage) {
  Result<std::string> content = ReadFileToString(CheckpointPath(dir, stage));
  EXPECT_TRUE(content.ok()) << stage << ": " << content.status().ToString();
  return content.ok() ? *content : std::string();
}

void WriteCheckpointFile(const std::string& dir, const std::string& stage,
                         const std::string& content) {
  std::ofstream out(CheckpointPath(dir, stage),
                    std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << stage;
}

/// Overwrites the 8-byte field at byte `at` of a payload.
void PutU64(std::string* payload, std::size_t at, std::uint64_t value) {
  ASSERT_LE(at + sizeof(value), payload->size());
  std::memcpy(payload->data() + at, &value, sizeof(value));
}

std::uint64_t GetU64(const std::string& payload, std::size_t at) {
  std::uint64_t value = 0;
  EXPECT_LE(at + sizeof(value), payload.size());
  if (at + sizeof(value) <= payload.size()) {
    std::memcpy(&value, payload.data() + at, sizeof(value));
  }
  return value;
}

/// `at` rounded up to the 64-byte boundary an array of a payload starts on.
std::size_t Aligned(std::size_t at) { return (at + 63) / 64 * 64; }

/// Sets the first column index of a matrix payload (sparse/io.hpp: rows,
/// cols, nnz, index width, then row_ptr, col_idx and values, each on a
/// 64-byte boundary) to `column`.
void PutFirstColumn(std::string* payload, std::uint32_t column) {
  const std::uint64_t rows = GetU64(*payload, 0), nnz = GetU64(*payload, 16);
  ASSERT_GT(nnz, 0u);
  ASSERT_EQ(GetU64(*payload, 24), 4u) << "small test graphs use 4-byte indices";
  const std::size_t at = Aligned(64 + static_cast<std::size_t>(rows + 1) * 4);
  ASSERT_LE(at + sizeof(column), payload->size());
  std::memcpy(payload->data() + at, &column, sizeof(column));
}

/// One payload edited behind valid checksums: section `section` of
/// `stage`'s checkpoint, re-framed so only the stage's decoder can notice.
struct Tamper {
  const char* what;
  const char* stage;
  const char* section;
  std::function<void(std::string*)> edit;
};

/// Applies `tamper` to the checkpoints in `dir`, then checks a build over
/// them ignores that one checkpoint: it resumes exactly `want_resumed`
/// others, recomputes the stage and equals `scratch` bitwise.
void ExpectTamperedStageRecomputed(const std::string& dir, const Graph& g,
                                   const HubSpokeDecomposition& scratch,
                                   const Tamper& tamper, int want_resumed) {
  SCOPED_TRACE(tamper.what);
  const std::string original = ReadCheckpoint(dir, tamper.stage);
  WriteCheckpointFile(dir, tamper.stage,
                      test::ReframeSection(original, kCheckpointMagic,
                                           tamper.section, tamper.edit));
  CheckpointManager manager(dir);
  manager.Bind(PreprocessFingerprint(g, "tag"));
  auto resumed =
      BuildDecomposition(g, TestDecompositionOptions(), nullptr, &manager);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(manager.checkpoints_resumed(), want_resumed);
  EXPECT_GT(manager.checkpoints_written(), 0);
  ExpectDecompositionEq(scratch, *resumed);
}

TEST_F(CheckpointTest, TamperedStagePayloadsAreRecomputed) {
  Graph g = test::SmallRmat(130, 560, 0.25, 3019);
  auto scratch = BuildDecomposition(g, TestDecompositionOptions(), nullptr);
  ASSERT_TRUE(scratch.ok());
  const auto n1 = static_cast<std::uint32_t>(scratch->n1);
  const auto n2 = static_cast<std::uint32_t>(scratch->n2);
  const std::uint64_t num_blocks = scratch->block_sizes.size();
  ASSERT_GT(n2, 0u);
  ASSERT_GT(num_blocks, 0u);
  const std::vector<Tamper> tampers = {
      {"reorder perm that is not a permutation", "reorder", "perm",
       [](std::string* p) {
         // n, n1, n2, n3, index width (8 bytes each), then 4-byte entries
         // from byte 64: the second entry repeats the first.
         ASSERT_EQ(GetU64(*p, 32), 4u);
         ASSERT_GE(p->size(), 72u);
         std::memcpy(p->data() + 68, p->data() + 64, 4);
       }},
      {"reorder block sizes that do not tile n1", "reorder", "blocks",
       [](std::string* p) {
         // count, index width, then the 4-byte sizes from byte 64: grow
         // the first.
         ASSERT_EQ(GetU64(*p, 8), 4u);
         ASSERT_GE(p->size(), 68u);
         std::uint32_t size = 0;
         std::memcpy(&size, p->data() + 64, sizeof(size));
         ++size;
         std::memcpy(p->data() + 64, &size, sizeof(size));
       }},
      {"factor l1_inv column out of range", "factor", "l1_inv",
       [n1](std::string* p) { PutFirstColumn(p, n1); }},
      {"factor progress past the block count", "factor", "progress",
       [num_blocks](std::string* p) { PutU64(p, 0, num_blocks + 1); }},
      {"schur column out of range", "schur", "schur",
       [n2](std::string* p) { PutFirstColumn(p, n2); }},
  };
  for (const Tamper& tamper : tampers) {
    std::filesystem::remove_all(Dir());
    CheckpointManager full(Dir());
    full.Bind(PreprocessFingerprint(g, "tag"));
    ASSERT_TRUE(
        BuildDecomposition(g, TestDecompositionOptions(), nullptr, &full)
            .ok());
    const std::string untampered = ReadCheckpoint(Dir(), tamper.stage);
    // reorder, factor and schur are on disk; the two left are resumed.
    ExpectTamperedStageRecomputed(Dir(), g, *scratch, tamper,
                                  /*want_resumed=*/2);
    // The recomputed stage wrote its checkpoint again, byte for byte.
    EXPECT_EQ(ReadCheckpoint(Dir(), tamper.stage), untampered) << tamper.what;
  }
}

TEST_F(CheckpointTest, TamperedReorderInputsAreRecomputed) {
  Graph g = test::SmallRmat(130, 560, 0.25, 3021);
  auto scratch = BuildDecomposition(g, TestDecompositionOptions(), nullptr);
  ASSERT_TRUE(scratch.ok());
  // A count of 2^40 entries would be terabytes: reaching an allocation
  // would throw instead of returning a Status.
  constexpr std::uint64_t kBomb = std::uint64_t{1} << 40;
  const std::vector<Tamper> tampers = {
      // non-deadend count, deadend count, then the permutation's count.
      {"deadend permutation claiming 2^40 entries", "deadend", "deadend",
       [](std::string* p) { PutU64(p, 16, kBomb); }},
      // spokes, hubs, rounds, then the partial permutation's count.
      {"SlashBurn round permutation claiming 2^40 entries",
       "slashburn.round", "round",
       [](std::string* p) { PutU64(p, 24, kBomb); }},
  };
  for (const Tamper& tamper : tampers) {
    // A run cancelled before its first SlashBurn round completes commits
    // the deadend partition and that round, and nothing later.
    std::filesystem::remove_all(Dir());
    CancelToken cancel;
    cancel.Cancel();
    DecompositionOptions cancelled = TestDecompositionOptions();
    cancelled.cancel = &cancel;
    CheckpointManager partial(Dir());
    partial.Bind(PreprocessFingerprint(g, "tag"));
    ASSERT_EQ(BuildDecomposition(g, cancelled, nullptr, &partial)
                  .status()
                  .code(),
              StatusCode::kCancelled);
    ASSERT_TRUE(std::filesystem::exists(CheckpointPath(Dir(), "deadend")));
    ASSERT_TRUE(
        std::filesystem::exists(CheckpointPath(Dir(), "slashburn.round")));
    // The other of the two is resumed.
    ExpectTamperedStageRecomputed(Dir(), g, *scratch, tamper,
                                  /*want_resumed=*/1);
  }
}

TEST_F(CheckpointTest, V2CheckpointsAreRecomputed) {
  Graph g = test::SmallRmat(110, 470, 0.2, 3031);
  auto scratch = BuildDecomposition(g, TestDecompositionOptions(), nullptr);
  ASSERT_TRUE(scratch.ok());
  CheckpointManager full(Dir());
  full.Bind(PreprocessFingerprint(g, "tag"));
  ASSERT_TRUE(
      BuildDecomposition(g, TestDecompositionOptions(), nullptr, &full).ok());
  // Every stage a finished run leaves, under the previous format's magic.
  for (const char* stage : {"reorder", "factor", "schur"}) {
    std::string content = ReadCheckpoint(Dir(), stage);
    ASSERT_EQ(content.rfind("BEPI-CKPT v3\n", 0), 0u) << stage;
    content[std::strlen("BEPI-CKPT v")] = '2';
    WriteCheckpointFile(Dir(), stage, content);
  }
  CheckpointManager resumer(Dir());
  resumer.Bind(PreprocessFingerprint(g, "tag"));
  auto resumed =
      BuildDecomposition(g, TestDecompositionOptions(), nullptr, &resumer);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumer.checkpoints_resumed(), 0);
  ExpectDecompositionEq(*scratch, *resumed);
}

TEST_F(CheckpointTest, TextCheckpointsFromV1AreIgnoredWithAWarning) {
  Graph g = test::SmallRmat(110, 470, 0.2, 3027);
  auto scratch = BuildDecomposition(g, TestDecompositionOptions(), nullptr);
  ASSERT_TRUE(scratch.ok());
  const HubSpokeDecomposition& dec = *scratch;
  const std::uint64_t fingerprint = PreprocessFingerprint(g, "tag");

  // The v1 layout: text fields and MatrixMarket matrices behind a text
  // `meta` section, for every stage a finished run leaves on disk.
  auto index_text = [](const std::vector<index_t>& v) {
    std::ostringstream out;
    out << v.size() << "\n";
    for (index_t x : v) out << x << "\n";
    return out.str();
  };
  auto write_v1 = [&](const std::string& stage,
                      const std::vector<std::pair<std::string, std::string>>&
                          sections) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::ostringstream file;
    SectionWriter writer(file, "BEPI-CKPT v1");
    std::string meta = "fingerprint ";
    meta += hex;
    meta += "\nstage " + stage + "\n";
    ASSERT_TRUE(writer.Add("meta", meta).ok());
    for (const auto& [name, payload] : sections) {
      ASSERT_TRUE(writer.Add(name, payload).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    WriteCheckpointFile(Dir(), stage, file.str());
  };
  std::filesystem::create_directories(Dir());
  std::ostringstream sizes;
  sizes << dec.n << " " << dec.n1 << " " << dec.n2 << " " << dec.n3 << " "
        << dec.slashburn_iterations << "\n";
  write_v1("reorder", {{"sizes", sizes.str()},
                       {"perm", index_text(dec.perm)},
                       {"blocks", index_text(dec.block_sizes)}});
  write_v1("factor",
           {{"progress", std::to_string(dec.block_sizes.size()) + "\n"},
            {"l1", test::MatrixMarketText(dec.l1_inv)},
            {"u1", test::MatrixMarketText(dec.u1_inv)}});
  write_v1("schur", {{"meta", std::to_string(dec.product_nnz) + "\n"},
                     {"schur", test::MatrixMarketText(dec.schur)}});

  CheckpointManager manager(Dir());
  manager.Bind(fingerprint);
  testing::internal::CaptureStderr();
  auto resumed =
      BuildDecomposition(g, TestDecompositionOptions(), nullptr, &manager);
  const std::string warnings = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(manager.checkpoints_resumed(), 0);
  for (const char* stage : {"reorder", "factor", "schur"}) {
    EXPECT_NE(warnings.find(CheckpointPath(Dir(), stage)), std::string::npos)
        << "no warning for the v1 " << stage << " checkpoint:\n"
        << warnings;
  }
  EXPECT_NE(warnings.find("BEPI-CKPT v1"), std::string::npos) << warnings;
  ExpectDecompositionEq(dec, *resumed);
  // Each stage now holds a current-format checkpoint.
  for (const char* stage : {"reorder", "factor", "schur"}) {
    EXPECT_EQ(ReadCheckpoint(Dir(), stage).rfind(kCheckpointMagic, 0), 0u)
        << stage;
  }
}

TEST_F(CheckpointTest, CheckpointedArtifactsMatchModelSectionsBytewise) {
  Graph g = test::SmallRmat(120, 500, 0.25, 3029);
  BepiSolver solver{BepiOptions()};
  CheckpointManager checkpoints(Dir());
  ASSERT_TRUE(solver.Preprocess(g, &checkpoints).ok());
  std::ostringstream model;
  ASSERT_TRUE(solver.Save(model).ok());
  auto payload = [](const std::string& framed, std::string_view magic,
                    std::string_view name) {
    auto reader = SectionReader::Open(framed, magic);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return std::string();
    for (;;) {
      auto next = reader->Next();
      EXPECT_TRUE(next.ok());
      if (!next.ok() || !next->has_value()) return std::string();
      if ((*next)->name == name) return std::string((*next)->payload);
    }
  };
  const std::string schur =
      payload(model.str(), BepiSolver::kModelMagic, "schur");
  ASSERT_FALSE(schur.empty());
  EXPECT_EQ(payload(ReadCheckpoint(Dir(), "schur"), kCheckpointMagic, "schur"),
            schur);
  EXPECT_EQ(payload(ReadCheckpoint(Dir(), "reorder"), kCheckpointMagic, "perm"),
            payload(model.str(), BepiSolver::kModelMagic, "perm"));
  // The model no longer stores the spoke block sizes; the checkpoint keeps
  // them in the codec a v7 model used.
  EXPECT_EQ(
      payload(ReadCheckpoint(Dir(), "reorder"), kCheckpointMagic, "blocks"),
      EncodeBlocks(solver.decomposition()));
  for (const char* section : {"l1_inv", "u1_inv"}) {
    EXPECT_EQ(
        payload(ReadCheckpoint(Dir(), "factor"), kCheckpointMagic, section),
        payload(model.str(), BepiSolver::kModelMagic, section))
        << section;
  }
}

TEST_F(CheckpointTest, StaleFingerprintRecomputesInsteadOfResuming) {
  Graph a = test::SmallRmat(100, 420, 0.2, 3011);
  Graph b = test::SmallRmat(100, 420, 0.2, 3013);
  const DecompositionOptions options = TestDecompositionOptions();
  {
    CheckpointManager manager(Dir());
    manager.Bind(PreprocessFingerprint(a, "tag"));
    ASSERT_TRUE(BuildDecomposition(a, options, nullptr, &manager).ok());
  }
  // Same directory, different graph: all checkpoints are stale.
  auto scratch_b = BuildDecomposition(b, options, nullptr);
  ASSERT_TRUE(scratch_b.ok());
  CheckpointManager manager(Dir());
  manager.Bind(PreprocessFingerprint(b, "tag"));
  auto resumed_b = BuildDecomposition(b, options, nullptr, &manager);
  ASSERT_TRUE(resumed_b.ok());
  EXPECT_EQ(manager.checkpoints_resumed(), 0);
  ExpectDecompositionEq(*scratch_b, *resumed_b);
}

TEST_F(CheckpointTest, OptionsTagChangesFingerprint) {
  Graph g = test::SmallRmat(80, 320, 0.2, 3017);
  EXPECT_NE(PreprocessFingerprint(g, "k=0.2"), PreprocessFingerprint(g, "k=0.3"));
}

// ---------------------------------------------------------------------------
// SlashBurn round resume

TEST_F(CheckpointTest, SlashBurnResumesMidRunToIdenticalResult) {
  Rng rng(3023);
  const CsrMatrix adjacency = test::RandomSparse(90, 90, 0.04, &rng);

  SlashBurnOptions options;
  options.k_ratio = 0.05;  // many rounds, so mid-run states exist
  std::vector<SlashBurnResult> partials;
  options.round_hook = [&partials](const SlashBurnResult& partial) {
    partials.push_back(partial);
    return Status::Ok();
  };
  auto uninterrupted = SlashBurn(adjacency, options);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_GE(partials.size(), 2u);

  // Resume from every captured round; each must converge to the exact
  // result of the uninterrupted run.
  for (std::size_t i = 0; i + 1 < partials.size(); ++i) {
    SlashBurnOptions resume_options;
    resume_options.k_ratio = options.k_ratio;
    resume_options.resume_from = &partials[i];
    auto resumed = SlashBurn(adjacency, resume_options);
    ASSERT_TRUE(resumed.ok()) << "round " << i << ": "
                              << resumed.status().ToString();
    EXPECT_EQ(resumed->perm, uninterrupted->perm) << "round " << i;
    EXPECT_EQ(resumed->num_spokes, uninterrupted->num_spokes);
    EXPECT_EQ(resumed->num_hubs, uninterrupted->num_hubs);
    EXPECT_EQ(resumed->block_sizes, uninterrupted->block_sizes);
  }
}

TEST_F(CheckpointTest, SlashBurnRejectsResumeWithRandomSelection) {
  Rng rng(3037);
  const CsrMatrix adjacency = test::RandomSparse(40, 40, 0.08, &rng);
  SlashBurnResult partial;
  partial.perm.assign(40, -1);
  SlashBurnOptions options;
  options.hub_selection = SlashBurnOptions::HubSelection::kRandom;
  options.resume_from = &partial;
  EXPECT_EQ(SlashBurn(adjacency, options).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end kill-and-resume (death tests)

std::string SaveToString(const BepiSolver& solver) {
  std::ostringstream out;
  EXPECT_TRUE(solver.Save(out).ok());
  return out.str();
}

/// SIGKILLs preprocessing right after the (skip+1)-th checkpoint commits,
/// then resumes in this process and checks the model is byte-identical to
/// a from-scratch run. This is the in-process version of the ci.sh
/// kill-and-resume smoke test.
void KillResumeAndCompare(const std::string& dir, int skip) {
  Graph g = test::SmallRmat(120, 500, 0.25, 3041);
  BepiOptions options;

  BepiSolver scratch(options);
  ASSERT_TRUE(scratch.Preprocess(g).ok());
  const std::string scratch_model = SaveToString(scratch);

  EXPECT_EXIT(
      {
        FaultInjector::Global().Arm(fault_sites::kCheckpointCrash, skip,
                                    /*count=*/1);
        BepiSolver victim(options);
        CheckpointManager checkpoints(dir);
        (void)victim.Preprocess(g, &checkpoints);
        // Unreachable when the armed crash fires.
      },
      testing::KilledBySignal(SIGKILL), "");

  // The directory now holds the checkpoints committed before the kill.
  BepiSolver resumed(options);
  CheckpointManager checkpoints(dir);
  ASSERT_TRUE(resumed.Preprocess(g, &checkpoints).ok());
  if (skip > 0) {
    EXPECT_GT(resumed.info().checkpoints_resumed, 0)
        << "kill after checkpoint " << skip + 1
        << " left nothing to resume";
  }
  EXPECT_EQ(SaveToString(resumed), scratch_model)
      << "resumed model differs from scratch after kill at checkpoint "
      << skip + 1;
}

using CheckpointDeathTest = CheckpointTest;

TEST_F(CheckpointDeathTest, KillAfterFirstCheckpointThenResume) {
  KillResumeAndCompare(Dir(), /*skip=*/0);
}

TEST_F(CheckpointDeathTest, KillAfterEachStageCheckpointThenResume) {
  // A scratch run commits four stage checkpoints (deadend, reorder,
  // factor, schur); kill after each in turn, always resuming into a fresh
  // directory.
  for (int skip = 1; skip < 4; ++skip) {
    std::filesystem::remove_all(Dir());
    KillResumeAndCompare(Dir(), skip);
  }
}

TEST_F(CheckpointDeathTest, PreprocessInfoReportsCheckpointOverhead) {
  Graph g = test::SmallRmat(90, 380, 0.2, 3049);
  BepiOptions options;
  BepiSolver solver(options);
  CheckpointManager checkpoints(Dir());
  ASSERT_TRUE(solver.Preprocess(g, &checkpoints).ok());
  EXPECT_EQ(solver.info().checkpoints_written, 4);
  EXPECT_EQ(solver.info().checkpoints_resumed, 0);
  EXPECT_GT(solver.info().checkpoint_seconds, 0.0);

  BepiSolver resumer(options);
  CheckpointManager resume_manager(Dir());
  ASSERT_TRUE(resumer.Preprocess(g, &resume_manager).ok());
  EXPECT_EQ(resumer.info().checkpoints_written, 0);
  EXPECT_EQ(resumer.info().checkpoints_resumed, 3);
}

}  // namespace
}  // namespace bepi
