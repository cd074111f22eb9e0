// Durable model store: CRC32C, atomic file writes, section framing, and
// the v5 model format's corruption detection (fuzz-style truncation and
// byte-flip sweeps, rejection of the retired v1-v3 formats, allocation
// bombs and tampered payloads behind valid checksums).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/faultinject.hpp"
#include "common/fileio.hpp"
#include "common/sections.hpp"
#include "core/bepi.hpp"
#include "solver/ilu0.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

class DurabilityTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/durability_" + name;
  }
};

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32c, KnownVectors) {
  // Reference values from the iSCSI (Castagnoli) specification.
  EXPECT_EQ(Crc32c::Compute("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c::Compute(""), 0x00000000u);
  EXPECT_EQ(Crc32c::Compute("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c::Compute("abc"), 0x364B3FB7u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data;
  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<char>(rng.NextDouble() * 256));
  }
  const std::uint32_t whole = Crc32c::Compute(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{999},
                            data.size()}) {
    Crc32c crc;
    crc.Update(std::string_view(data).substr(0, split));
    crc.Update(std::string_view(data).substr(split));
    EXPECT_EQ(crc.Value(), whole) << "split at " << split;
  }
}

TEST(Crc32c, UnalignedBuffersMatchByteWise) {
  // The slice-by-8 fast path only engages on 8-byte-aligned interiors;
  // feeding the same bytes from every start offset must not change the
  // digest of those bytes.
  std::string data(256, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 17);
  }
  for (std::size_t offset = 0; offset < 9; ++offset) {
    const std::string_view window =
        std::string_view(data).substr(offset, 200);
    Crc32c bytewise;
    for (char c : window) bytewise.Update(&c, 1);
    EXPECT_EQ(Crc32c::Compute(window), bytewise.Value())
        << "offset " << offset;
  }
}

TEST(Crc32c, ResetRestartsState) {
  Crc32c crc;
  crc.Update("garbage");
  crc.Reset();
  crc.Update("123456789");
  EXPECT_EQ(crc.Value(), 0xE3069283u);
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

TEST_F(DurabilityTest, AtomicWriterCommitCreatesFile) {
  const std::string path = TempPath("commit.txt");
  std::remove(path.c_str());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    writer.stream() << "hello durable world\n";
    ASSERT_TRUE(writer.Commit().ok());
    EXPECT_FALSE(std::filesystem::exists(writer.temp_path()));
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello durable world\n");
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, AtomicWriterAbortPreservesOldContent) {
  const std::string path = TempPath("abort.txt");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "version 1\n";
    ASSERT_TRUE(writer.Commit().ok());
  }
  {
    AtomicFileWriter writer(path);
    writer.stream() << "version 2, never committed\n";
    // Destructor aborts: temp removed, target untouched.
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "version 1\n");
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, AtomicWriterDoubleCommitFails) {
  const std::string path = TempPath("double.txt");
  AtomicFileWriter writer(path);
  writer.stream() << "x\n";
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.Commit().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, ShortWriteFaultFailsCommitAndPreservesTarget) {
  const std::string path = TempPath("short.txt");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "intact original\n";
    ASSERT_TRUE(writer.Commit().ok());
  }
  FaultInjector::Global().Arm(fault_sites::kFileShortWrite, 0, 1);
  {
    AtomicFileWriter writer(path);
    writer.stream() << "this write gets torn off\n";
    const Status status = writer.Commit();
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_FALSE(std::filesystem::exists(writer.temp_path()));
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "intact original\n");
  std::remove(path.c_str());
}

TEST_F(DurabilityTest, CrashBeforeRenameLeavesTempAndTarget) {
  const std::string path = TempPath("crash.txt");
  {
    AtomicFileWriter writer(path);
    writer.stream() << "old model\n";
    ASSERT_TRUE(writer.Commit().ok());
  }
  FaultInjector::Global().Arm(fault_sites::kFileCrashBeforeRename, 0, 1);
  std::string temp_path;
  {
    AtomicFileWriter writer(path);
    temp_path = writer.temp_path();
    writer.stream() << "new model, crash before rename\n";
    EXPECT_EQ(writer.Commit().code(), StatusCode::kIoError);
  }
  // As after a real crash: the complete temp file is on disk, the target
  // still holds the old version.
  auto temp_content = ReadFileToString(temp_path);
  ASSERT_TRUE(temp_content.ok());
  EXPECT_EQ(*temp_content, "new model, crash before rename\n");
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "old model\n");
  std::remove(path.c_str());
  std::remove(temp_path.c_str());
}

TEST_F(DurabilityTest, BitFlipFaultCorruptsRead) {
  const std::string path = TempPath("flip.txt");
  const std::string original = "sixteen byte line\n";
  {
    AtomicFileWriter writer(path);
    writer.stream() << original;
    ASSERT_TRUE(writer.Commit().ok());
  }
  FaultInjector::Global().Arm(fault_sites::kFileBitFlip, 0, 1);
  auto flipped = ReadFileToString(path);
  ASSERT_TRUE(flipped.ok());
  ASSERT_EQ(flipped->size(), original.size());
  EXPECT_NE(*flipped, original);
  EXPECT_EQ((*flipped)[flipped->size() / 2] ^ 0x01,
            original[original.size() / 2]);
  std::remove(path.c_str());
}

TEST(StreamRemainingBytesTest, CountsAndHandlesConsumption) {
  std::istringstream in("0123456789");
  EXPECT_EQ(StreamRemainingBytes(in), 10);
  char buf[4];
  in.read(buf, 4);
  EXPECT_EQ(StreamRemainingBytes(in), 6);
  // The probe must not disturb the read position.
  in.read(buf, 2);
  EXPECT_EQ(buf[0], '4');
}

// ---------------------------------------------------------------------------
// Section framing

std::string FramedStream() {
  std::ostringstream out;
  SectionWriter writer(out, "TEST-MAGIC v1");
  EXPECT_TRUE(writer.Add("alpha", "first payload").ok());
  EXPECT_TRUE(writer.Add("beta", "").ok());
  EXPECT_TRUE(writer.Add("gamma", "payload\nwith\nnewlines\n").ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

TEST(Sections, RoundTrip) {
  const std::string framed = FramedStream();
  auto reader = SectionReader::Open(framed, "TEST-MAGIC v1");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto alpha = reader->Expect("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha->payload, "first payload");
  auto beta = reader->Expect("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->payload, "");
  auto gamma = reader->Expect("gamma");
  ASSERT_TRUE(gamma.ok());
  EXPECT_EQ(gamma->payload, "payload\nwith\nnewlines\n");
  auto end = reader->Next();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_FALSE(end->has_value());
  EXPECT_TRUE(reader->done());
}

TEST(Sections, WrongMagicRejected) {
  EXPECT_FALSE(SectionReader::Open(FramedStream(), "OTHER-MAGIC").ok());
}

Status DrainReader(std::string_view framed) {
  auto reader = SectionReader::Open(framed, "TEST-MAGIC v1");
  if (!reader.ok()) return reader.status();
  while (!reader->done()) {
    auto next = reader->Next();
    if (!next.ok()) return next.status();
  }
  return Status::Ok();
}

TEST(Sections, EveryTruncationIsDetected) {
  const std::string intact = FramedStream();
  for (std::size_t len = 0; len < intact.size(); ++len) {
    const Status status = DrainReader(std::string_view(intact).substr(0, len));
    EXPECT_FALSE(status.ok()) << "truncation at byte " << len
                              << " went unnoticed";
  }
  EXPECT_TRUE(DrainReader(intact).ok());
  // Bytes after the end marker are damage too.
  EXPECT_FALSE(DrainReader(intact + "x").ok());
}

TEST(Sections, EveryByteFlipIsDetected) {
  const std::string intact = FramedStream();
  for (std::size_t pos = 0; pos < intact.size(); ++pos) {
    std::string corrupted = intact;
    corrupted[pos] ^= 0x01;
    const Status status = DrainReader(corrupted);
    EXPECT_FALSE(status.ok()) << "byte flip at " << pos << " went unnoticed";
  }
}

TEST(Sections, CheckIntegrityReportsEverySection) {
  const std::string intact = FramedStream();
  {
    std::istringstream in(intact);
    const IntegrityReport report = CheckIntegrity(in, "TEST-");
    EXPECT_TRUE(report.overall.ok()) << report.overall.ToString();
    EXPECT_TRUE(report.manifest_ok);
    ASSERT_EQ(report.sections.size(), 3u);
    EXPECT_EQ(report.sections[0].name, "alpha");
    EXPECT_EQ(report.sections[1].name, "beta");
    EXPECT_EQ(report.sections[2].name, "gamma");
    for (const SectionCheck& check : report.sections) {
      EXPECT_TRUE(check.ok);
    }
  }
  {
    // Corrupt the first payload; the scan must keep going and still verify
    // the later sections individually.
    std::string corrupted = intact;
    const std::size_t payload_pos = corrupted.find("first payload");
    ASSERT_NE(payload_pos, std::string::npos);
    corrupted[payload_pos] ^= 0x01;
    std::istringstream in(corrupted);
    const IntegrityReport report = CheckIntegrity(in, "TEST-");
    EXPECT_EQ(report.overall.code(), StatusCode::kDataLoss);
    ASSERT_EQ(report.sections.size(), 3u);
    EXPECT_FALSE(report.sections[0].ok);
    EXPECT_TRUE(report.sections[1].ok);
    EXPECT_TRUE(report.sections[2].ok);
  }
}

// ---------------------------------------------------------------------------
// Model format v5. The suite keeps the name it got when the checksummed
// sections arrived with format v3; every test here runs the current format.

class ModelV3Test : public DurabilityTest {
 protected:
  static BepiSolver MakeSolver() {
    BepiOptions options;
    options.mode = BepiMode::kPreconditioned;
    options.tolerance = 1e-9;
    options.max_iterations = 300;
    options.gmres_restart = 100;
    return BepiSolver(options);
  }

  static std::string SaveToString(const BepiSolver& solver) {
    std::ostringstream out;
    EXPECT_TRUE(solver.Save(out).ok());
    return out.str();
  }
};

TEST_F(ModelV3Test, SaveProducesVerifiableSections) {
  Graph g = test::SmallRmat(120, 520, 0.25, 2027);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  EXPECT_EQ(model.rfind("BEPI-MODEL v8\n", 0), 0u);
  std::istringstream in(model);
  const IntegrityReport report = CheckIntegrity(in, "BEPI-MODEL");
  EXPECT_TRUE(report.overall.ok()) << report.overall.ToString();
  EXPECT_TRUE(report.manifest_ok);
  // options + perm + 7 matrices + ILU(0) factor values + kernel path.
  EXPECT_EQ(report.sections.size(), 11u);
}

TEST_F(ModelV3Test, RoundTripIsBitwiseIdentical) {
  Graph g = test::SmallRmat(100, 430, 0.2, 2029);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string first = SaveToString(solver);
  std::istringstream in(first);
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveToString(*loaded), first);
  // And queries agree, bit for bit.
  auto r1 = solver.Query(11);
  auto r2 = loaded->Query(11);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST_F(ModelV3Test, TruncationAtEverySectionBoundaryIsDataLossNotCrash) {
  Graph g = test::SmallRmat(70, 280, 0.2, 2039);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  std::istringstream scan(model);
  const IntegrityReport report = CheckIntegrity(scan, "BEPI-MODEL");
  ASSERT_TRUE(report.overall.ok());
  std::vector<std::size_t> cut_points;
  for (const SectionCheck& check : report.sections) {
    cut_points.push_back(static_cast<std::size_t>(check.offset));
    cut_points.push_back(
        static_cast<std::size_t>(check.offset + check.length / 2));
  }
  cut_points.push_back(model.size() - 1);  // inside the manifest tail
  for (std::size_t cut : cut_points) {
    std::istringstream in(model.substr(0, cut));
    auto loaded = BepiSolver::Load(in);
    EXPECT_FALSE(loaded.ok()) << "truncation at byte " << cut;
  }
}

TEST_F(ModelV3Test, ByteFlipInEachSectionIsDataLossNamingTheSection) {
  Graph g = test::SmallRmat(70, 280, 0.2, 2053);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  std::istringstream scan(model);
  const IntegrityReport report = CheckIntegrity(scan, "BEPI-MODEL");
  ASSERT_TRUE(report.overall.ok());
  ASSERT_EQ(report.sections.size(), 11u);
  for (const SectionCheck& check : report.sections) {
    if (check.length == 0) continue;
    // First payload byte: just past the "%section name len crc\n" header.
    const std::size_t header_end = model.find('\n', check.offset);
    ASSERT_NE(header_end, std::string::npos);
    std::string corrupted = model;
    corrupted[header_end + 1 + check.length / 2] ^= 0x01;
    std::istringstream in(corrupted);
    auto loaded = BepiSolver::Load(in);
    ASSERT_FALSE(loaded.ok()) << "flip in section " << check.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find(check.name), std::string::npos)
        << "DataLoss message does not name section '" << check.name
        << "': " << loaded.status().ToString();
  }
}

/// The retired text formats, rebuilt from a preprocessed solver's public
/// state: v1/v2 as plain text, v3 as the same text pieces in checksummed
/// sections. The H11 and H22 that v2 and v3 also stored are left out: the
/// loader rejects every text format by its header.
std::string LegacyModelText(const BepiSolver& solver, int version) {
  const HubSpokeDecomposition& dec = solver.decomposition();
  std::ostringstream options;
  options.precision(17);
  options << 2 << " " << 0.05 << " " << 1e-9 << " " << 300 << " " << 100
          << " " << solver.effective_hub_ratio() << "\n";
  std::ostringstream perm;
  perm << dec.n << " " << dec.n1 << " " << dec.n2 << " " << dec.n3 << "\n";
  for (index_t i = 0; i < dec.n; ++i) {
    perm << dec.perm[static_cast<std::size_t>(i)]
         << (i + 1 == dec.n ? '\n' : ' ');
  }
  const DecompositionKernels& kern = *solver.kernels();
  std::vector<std::pair<const char*, const KernelCsr*>> matrices = {
      {"l1_inv", &kern.l1_inv}, {"u1_inv", &kern.u1_inv},
      {"h12", &kern.h12},       {"h21", &kern.h21},
      {"h31", &kern.h31},       {"h32", &kern.h32},
      {"schur", &kern.schur}};
  std::ostringstream out;
  if (version < 3) {
    out << "BEPI-MODEL v" << version << "\n" << options.str() << perm.str();
    for (const auto& [name, m] : matrices) {
      out << test::MatrixMarketText(m->ToCsr());
    }
    return out.str();
  }
  SectionWriter writer(out, "BEPI-MODEL v3");
  EXPECT_TRUE(writer.Add("options", options.str()).ok());
  EXPECT_TRUE(writer.Add("perm", perm.str()).ok());
  for (const auto& [name, m] : matrices) {
    EXPECT_TRUE(writer.Add(name, test::MatrixMarketText(m->ToCsr())).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

TEST_F(ModelV3Test, LoadCompatMatrixAcrossFormatVersions) {
  Graph g = test::SmallRmat(90, 370, 0.25, 2063);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto reference = solver.Query(5);
  ASSERT_TRUE(reference.ok());

  // The text formats are gone: each is rejected by version, with the fix.
  for (int version : {1, 2, 3}) {
    std::istringstream in(LegacyModelText(solver, version));
    auto loaded = BepiSolver::Load(in);
    ASSERT_FALSE(loaded.ok()) << "v" << version << " loaded";
    const std::string message = loaded.status().ToString();
    std::string tag = "v";
    tag += std::to_string(version);
    EXPECT_NE(message.find(tag), std::string::npos) << message;
    EXPECT_NE(message.find("preprocess"), std::string::npos) << message;
  }
  std::istringstream in(SaveToString(solver));
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto result = loaded->Query(5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *reference);
}

/// `at` rounded up to the 64-byte boundary an array of a payload starts on.
std::size_t Aligned(std::size_t at) { return (at + 63) / 64 * 64; }

/// Overwrites the 8-byte field at byte `at` of a section payload.
void PutU64(std::string* payload, std::size_t at, std::uint64_t value) {
  ASSERT_LE(at + sizeof(value), payload->size());
  std::memcpy(payload->data() + at, &value, sizeof(value));
}

TEST_F(ModelV3Test, TamperedPayloadsWithValidChecksumsFailCleanly) {
  Graph g = test::SmallRmat(90, 370, 0.25, 2069);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  const index_t n2 = solver.decomposition().n2;
  ASSERT_GT(n2, 0);
  auto load = [](const std::string& text) {
    std::istringstream in(text);
    return BepiSolver::Load(in);
  };
  // A count of 2^40 entries would be terabytes: reaching an allocation
  // would throw instead of returning a Status.
  constexpr std::uint64_t kBomb = std::uint64_t{1} << 40;
  {
    // Matrix header fields: rows, cols, nnz, index width (8 bytes each).
    auto loaded = load(test::ReframeSection(
        model, BepiSolver::kModelMagic, "schur",
        [&](std::string* p) { PutU64(p, 16, kBomb); }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("schur"), std::string::npos);
    EXPECT_NE(loaded.status().ToString().find("claims"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    // The first column index of S, one past the last column. The test
    // graph is small, so S's indices are 4 bytes wide; each array starts
    // on a 64-byte boundary.
    auto loaded = load(test::ReframeSection(
        model, BepiSolver::kModelMagic, "schur", [&](std::string* p) {
          const std::size_t at =
              Aligned(64 + static_cast<std::size_t>(n2 + 1) * 4);
          const auto column = static_cast<std::uint32_t>(n2);
          ASSERT_LE(at + sizeof(column), p->size());
          std::memcpy(p->data() + at, &column, sizeof(column));
        }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("column index out of range"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // An S whose first row runs one past its nnz = 2 entries, with columns
    // ascending up to there: row_ptr is rejected before col_idx is read
    // out of bounds.
    ASSERT_GE(n2, 2);
    auto loaded = load(test::ReframeSection(
        model, BepiSolver::kModelMagic, "schur", [&](std::string* p) {
          std::string payload;
          auto u64 = [&](std::uint64_t v) {
            payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
          };
          auto u32 = [&](std::uint32_t v) {
            payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
          };
          auto pad = [&] { payload.resize(Aligned(payload.size()), '\0'); };
          for (std::uint64_t field : {std::uint64_t(n2), std::uint64_t(n2),
                                      std::uint64_t{2}, std::uint64_t{4}}) {
            u64(field);  // rows, cols, nnz, index width
          }
          pad();
          u32(0);
          u32(3);
          for (index_t r = 1; r < n2; ++r) u32(2);  // row_ptr
          pad();
          u32(0);
          u32(1);  // col_idx
          pad();
          for (const double v : {1.0, 1.0}) {
            payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
          }
          *p = std::move(payload);
        }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("row_ptr exceeds nnz"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // A permutation claiming 2^40 nodes (partition sizes stay consistent).
    auto loaded = load(test::ReframeSection(
        model, BepiSolver::kModelMagic, "perm", [&](std::string* p) {
          PutU64(p, 0, kBomb);
          PutU64(p, 8, kBomb);
          PutU64(p, 16, 0);
          PutU64(p, 24, 0);
        }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("claims"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    // A zero pivot in the persisted factors.
    auto loaded = load(test::ReframeSection(
        model, BepiSolver::kModelMagic, "ilu0",
        [](std::string* p) { std::fill(p->begin(), p->end(), '\0'); }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("pivot"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    // A section no v5 writer produces.
    std::ostringstream out;
    SectionWriter writer(out, BepiSolver::kModelMagic);
    auto reader = SectionReader::Open(model, BepiSolver::kModelMagic);
    ASSERT_TRUE(reader.ok());
    for (;;) {
      auto next = reader->Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      ASSERT_TRUE(writer.Add((*next)->name, (*next)->payload).ok());
    }
    ASSERT_TRUE(writer.Add("extra", "x").ok());
    ASSERT_TRUE(writer.Finish().ok());
    auto loaded = load(out.str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("extra"), std::string::npos);
  }
}

/// Copies a v4 section payload field by field, rewriting its 4-byte index
/// arrays 8 bytes wide: the layout of models too large for the compact
/// index rule, which small test graphs never reach.
class IndexWidener {
 public:
  explicit IndexWidener(const std::string& in) : in_(in) {}

  /// Copies one 8-byte field and returns it.
  std::uint64_t U64() {
    std::uint64_t v = 0;
    EXPECT_LE(pos_ + sizeof(v), in_.size());
    if (pos_ + sizeof(v) > in_.size()) return 0;
    std::memcpy(&v, in_.data() + pos_, sizeof(v));
    out_.append(in_, pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  /// The index width field: reads 4, writes 8.
  void Width() {
    const std::uint64_t width = U64();
    EXPECT_EQ(width, 4u);
    const std::uint64_t wide = 8;
    std::memcpy(out_.data() + out_.size() - sizeof(wide), &wide,
                sizeof(wide));
  }
  void Indices(std::uint64_t count) {
    Pad();
    EXPECT_LE(pos_ + count * 4, in_.size());
    for (std::uint64_t i = 0; i < count && pos_ + 4 <= in_.size(); ++i) {
      std::uint32_t narrow = 0;
      std::memcpy(&narrow, in_.data() + pos_, sizeof(narrow));
      const std::int64_t wide = narrow;
      out_.append(reinterpret_cast<const char*>(&wide), sizeof(wide));
      pos_ += sizeof(narrow);
    }
  }
  /// The rest of the payload unchanged (a matrix's f64 values, after
  /// their pad).
  std::string Finish() {
    if (pos_ < in_.size()) Pad();
    out_.append(in_, pos_);
    return std::move(out_);
  }

 private:
  /// Steps over the pad before an input array and writes the one before
  /// the output array.
  void Pad() {
    pos_ = Aligned(pos_);
    out_.resize(Aligned(out_.size()), '\0');
  }

  const std::string& in_;
  std::size_t pos_ = 0;
  std::string out_;
};

/// `payload` of section `name` with every index array 8 bytes wide, or
/// unchanged for sections that hold none.
std::string WidenSection(const std::string& name,
                         const std::string& payload) {
  IndexWidener w(payload);
  if (name == "perm") {
    const std::uint64_t n = w.U64();
    for (int i = 0; i < 3; ++i) w.U64();  // n1, n2, n3
    w.Width();
    w.Indices(n);
  } else if (name != "options" && name != "ilu0" && name != "kernel") {
    const std::uint64_t rows = w.U64();
    w.U64();  // cols
    const std::uint64_t nnz = w.U64();
    w.Width();
    w.Indices(rows + 1);
    w.Indices(nnz);
  }
  return w.Finish();
}

TEST_F(ModelV3Test, EightByteIndicesLoadLikeFourByteOnes) {
  Graph g = test::SmallRmat(120, 520, 0.25, 2093);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string model = SaveToString(solver);
  std::ostringstream out;
  {
    SectionWriter writer(out, BepiSolver::kModelMagic);
    auto reader = SectionReader::Open(model, BepiSolver::kModelMagic);
    ASSERT_TRUE(reader.ok());
    for (;;) {
      auto next = reader->Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      const std::string payload((*next)->payload);
      ASSERT_TRUE(
          writer.Add((*next)->name, WidenSection((*next)->name, payload)).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  const std::string wide = out.str();
  ASSERT_GT(wide.size(), model.size());
  std::istringstream in(wide);
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The loaded solver is the 4-byte one: it saves back to the original
  // bytes.
  EXPECT_EQ(SaveToString(*loaded), model);
  auto r1 = solver.Query(5);
  auto r2 = loaded->Query(5);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST_F(ModelV3Test, LoadAdoptsPersistedIluFactorsBitwise) {
  Graph g = test::SmallRmat(120, 520, 0.25, 2087);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  std::istringstream in(SaveToString(solver));
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->preconditioner(), nullptr);
  // The adopted factors are the rounded ones a fresh factorization of the
  // loaded S stores: f32 triangles and f64 pivots, bit for bit.
  auto factored = Ilu0::Factor(loaded->kernels()->schur.ToCsr());
  ASSERT_TRUE(factored.ok());
  const Ilu0& adopted = *loaded->preconditioner();
  const CsrMatrix adopted_pattern = adopted.pattern().ToCsr();
  const CsrMatrix fresh_pattern = factored->pattern().ToCsr();
  EXPECT_EQ(adopted_pattern.row_ptr(), fresh_pattern.row_ptr());
  EXPECT_EQ(adopted_pattern.col_idx(), fresh_pattern.col_idx());
  ASSERT_EQ(adopted.triangles().size(), factored->triangles().size());
  ASSERT_EQ(adopted.pivots().size(), factored->pivots().size());
  EXPECT_EQ(std::memcmp(adopted.triangles().data(),
                        factored->triangles().data(),
                        adopted.triangles().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(adopted.pivots().data(), factored->pivots().data(),
                        adopted.pivots().size_bytes()),
            0);
  EXPECT_FALSE(loaded->info().ilu_skipped);
}

TEST_F(ModelV3Test, IluSkippedAtPreprocessLoadsUnpreconditioned) {
  Graph g = test::SmallRmat(120, 520, 0.25, 2089);
  FaultInjector::Global().Arm(fault_sites::kIluFactor, 0, 1);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  FaultInjector::Global().Reset();
  ASSERT_TRUE(solver.info().ilu_skipped);
  const std::string model = SaveToString(solver);
  {
    std::istringstream scan(model);
    const IntegrityReport report = CheckIntegrity(scan, "BEPI-MODEL");
    ASSERT_TRUE(report.overall.ok());
    EXPECT_EQ(report.sections.size(), 10u);  // no "ilu0" section
  }
  std::istringstream in(model);
  auto loaded = BepiSolver::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->preconditioner(), nullptr);
  EXPECT_TRUE(loaded->info().ilu_skipped);
  QueryStats stats;
  auto r1 = solver.Query(7);
  auto r2 = loaded->Query(7, &stats);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_FALSE(stats.report.attempts.empty());
  EXPECT_EQ(stats.report.attempts.front().stage, "jacobi+gmres");
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(SaveToString(*loaded), model);
}

TEST_F(ModelV3Test, SaveFileIsAtomicAndLeavesNoTemp) {
  Graph g = test::SmallRmat(60, 240, 0.2, 2081);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string path = TempPath("model_v5.bepi");
  ASSERT_TRUE(solver.SaveFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
  auto loaded = BepiSolver::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // A bit flip anywhere on the read path is caught by some checksum.
  FaultInjector::Global().Arm(fault_sites::kFileBitFlip, 0, 1);
  auto corrupted = BepiSolver::LoadFile(path);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kDataLoss)
      << corrupted.status().ToString();
  std::remove(path.c_str());
}

TEST_F(ModelV3Test, SaveFileSurfacesShortWrite) {
  Graph g = test::SmallRmat(50, 200, 0.2, 2083);
  BepiSolver solver = MakeSolver();
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const std::string path = TempPath("model_torn.bepi");
  FaultInjector::Global().Arm(fault_sites::kFileShortWrite, 0, 1);
  const Status status = solver.SaveFile(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace bepi
