// The mapped model format (v5 on, now v8): the hardware CRC32C path, the
// mapped load, what a load rejects (older formats, sections v8 dropped,
// misplaced arrays, nonzero pads, flipped bits, files that are no model at
// all), and a served model replaced by rename.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/faultinject.hpp"
#include "common/fileio.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/sections.hpp"
#include "core/bepi.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(Crc32c, HardwareAndTablePathsAgree) {
  if (!Crc32c::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  Rng rng(5101);
  std::vector<unsigned char> buffer((3u << 20) + 64);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.Next());
  // Every length up to 4096 at every alignment: the byte, word and both
  // interleaved-stream loops with each possible head and tail.
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t length = 0; length <= 4096; ++length) {
      const unsigned char* p = buffer.data() + align;
      ASSERT_EQ(Crc32c::UpdateHardware(0xFFFFFFFFu, p, length),
                Crc32c::UpdateTable(0xFFFFFFFFu, p, length))
          << "length " << length << " alignment " << align;
    }
  }
  // A buffer long enough for the 3 x 8 KiB streams, from a running state.
  const std::size_t big = 3u << 20;
  EXPECT_EQ(Crc32c::UpdateHardware(0x12345678u, buffer.data() + 3, big),
            Crc32c::UpdateTable(0x12345678u, buffer.data() + 3, big));
}

class ModelV5Test : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override {
    FaultInjector::Global().Reset();
    for (const std::string& path : paths_) std::filesystem::remove_all(path);
  }

  std::string TempPath(const std::string& name) {
    paths_.push_back(testing::TempDir() + "/model_v5_" + name);
    std::filesystem::remove_all(paths_.back());
    return paths_.back();
  }

  static BepiSolver Preprocessed(const Graph& g) {
    BepiOptions options;
    options.max_iterations = 300;
    BepiSolver solver(options);
    EXPECT_TRUE(solver.Preprocess(g).ok());
    return solver;
  }

  static std::string SaveToString(const BepiSolver& solver) {
    std::ostringstream out;
    EXPECT_TRUE(solver.Save(out).ok());
    return out.str();
  }

 private:
  std::vector<std::string> paths_;
};

TEST_F(ModelV5Test, MappedLoadRoundTripsBitwise) {
  const Graph g = test::SmallRmat(150, 650, 0.2, 5103);
  const BepiSolver solver = Preprocessed(g);
  const std::string path = TempPath("roundtrip.bepi");
  ASSERT_TRUE(solver.SaveFile(path).ok());
  auto loaded = BepiSolver::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Save(Load(m)) == m, and the loaded solver holds the same arrays at the
  // same widths as the preprocessed one.
  EXPECT_EQ(SaveToString(*loaded), SaveToString(solver));
  EXPECT_EQ(loaded->PreprocessedBytes(), solver.PreprocessedBytes());
  for (index_t seed : {0, 7, 149}) {
    EXPECT_EQ(*loaded->Query(seed), *solver.Query(seed)) << "seed " << seed;
  }
  TopKOptions topk;
  topk.k = 10;
  EXPECT_EQ(loaded->QueryTopK(7, topk)->entries,
            solver.QueryTopK(7, topk)->entries);
}

/// A stream buffer that cannot seek, like a pipe's.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST_F(ModelV5Test, StreamLoadReadsTheRestIntoAlignedBytes) {
  const BepiSolver solver = Preprocessed(test::SmallRmat(60, 240, 0.2, 5109));
  const std::string model = SaveToString(solver);
  for (const bool seekable : {true, false}) {
    // A stream is read from its current position on.
    std::istringstream string_in("xyz" + model);
    UnseekableBuf pipe_buf("xyz" + model);
    std::istream pipe_in(&pipe_buf);
    std::istream& in =
        seekable ? static_cast<std::istream&>(string_in) : pipe_in;
    in.ignore(3);
    auto bytes = ReadStreamAligned(in);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ((*bytes)->view(), model) << "seekable " << seekable;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>((*bytes)->data()) %
                  AlignedBytes::kAlignment,
              0u);

    std::istringstream model_string_in(model);
    UnseekableBuf model_pipe_buf(model);
    std::istream model_pipe_in(&model_pipe_buf);
    auto loaded = BepiSolver::Load(
        seekable ? static_cast<std::istream&>(model_string_in)
                 : model_pipe_in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SaveToString(*loaded), model) << "seekable " << seekable;
  }
}

TEST_F(ModelV5Test, RejectsV4HeaderNamingPreprocess) {
  // v4 and v5 (f64 ILU(0) factors in combined L\U storage), v6 (level
  // schedules in the kernel section) and v7 (H11, H22 and the spoke block
  // sizes) alike.
  const BepiSolver solver = Preprocessed(test::SmallRmat(60, 240, 0.2, 5107));
  const std::string current = SaveToString(solver);
  ASSERT_EQ(current.rfind("BEPI-MODEL v8\n", 0), 0u);
  for (const char version : {'4', '5', '6', '7'}) {
    std::string model = current;
    model[std::strlen("BEPI-MODEL v")] = version;
    auto loaded = BepiSolver::Load(model);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    const std::string message = loaded.status().ToString();
    EXPECT_NE(message.find(std::string("v") + version), std::string::npos)
        << message;
    EXPECT_NE(message.find("preprocess"), std::string::npos) << message;
    EXPECT_NE(message.find("reads v8"), std::string::npos) << message;
  }
}

TEST_F(ModelV5Test, RejectsH22SectionAsUnknown) {
  // v8 dropped the h11, h22 and blocks sections. A v8 header over a model
  // that still carries one (here h22, after schur as a v7 writer put it)
  // is rejected by the section's name, checksums notwithstanding.
  const BepiSolver solver = Preprocessed(test::SmallRmat(60, 240, 0.2, 5107));
  const std::string current = SaveToString(solver);
  auto reader = SectionReader::Open(current, BepiSolver::kModelMagic);
  ASSERT_TRUE(reader.ok());
  std::ostringstream out;
  SectionWriter writer(out, BepiSolver::kModelMagic);
  for (;;) {
    auto next = reader->Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    ASSERT_TRUE(writer.Add((*next)->name, (*next)->payload).ok());
    // S has H22's shape and encoding.
    if ((*next)->name == "schur") {
      ASSERT_TRUE(writer.Add("h22", (*next)->payload).ok());
    }
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto loaded = BepiSolver::Load(out.str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().ToString().find("unknown section 'h22'"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ModelV5Test, EmptyFileAndDirectoryAreIoErrors) {
  const std::string empty = TempPath("empty.bepi");
  std::ofstream(empty).close();
  const std::string dir = TempPath("dir.bepi");
  std::filesystem::create_directories(dir);
  for (const std::string& path : {empty, dir}) {
    auto loaded = BepiSolver::LoadFile(path);
    ASSERT_FALSE(loaded.ok()) << path;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << path;
    EXPECT_NE(loaded.status().ToString().find(path), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(ModelV5Test, BitFlipInTheMappingIsDataLossNamingTheSection) {
  const BepiSolver solver = Preprocessed(test::SmallRmat(120, 520, 0.2, 5109));
  const std::string path = TempPath("flip.bepi");
  ASSERT_TRUE(solver.SaveFile(path).ok());
  const Result<std::string> before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());
  FaultInjector::Global().Arm(fault_sites::kFileBitFlip, 0, 1);
  auto loaded = BepiSolver::LoadFile(path);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("section '"), std::string::npos)
      << loaded.status().ToString();
  // The flip went to a private copy of the page, not to the file.
  const Result<std::string> after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  EXPECT_TRUE(BepiSolver::LoadFile(path).ok());
}

TEST_F(ModelV5Test, MisplacedArraysAndNonzeroPadsAreRejected) {
  const BepiSolver solver = Preprocessed(test::SmallRmat(90, 370, 0.2, 5113));
  const std::string model = SaveToString(solver);
  const auto magic = BepiSolver::kModelMagic;
  {
    // A nonzero byte in the pad between S's header fields and row_ptr.
    auto loaded = BepiSolver::Load(test::ReframeSection(
        model, magic, "schur", [](std::string* p) { (*p)[40] = 1; }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("nonzero pad"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("'schur'"), std::string::npos);
  }
  {
    // S's row_ptr moved up against the header fields (its pad moved to
    // the end): the length and the checksums still hold, the layout not.
    auto loaded = BepiSolver::Load(test::ReframeSection(
        model, magic, "schur", [](std::string* p) {
          const std::string pad = p->substr(32, 32);
          p->erase(32, 32);
          p->append(pad);
        }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("'schur'"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    // One blank fewer after a section header: every byte of its payload
    // sits one byte off the 64-byte boundary.
    std::size_t newline = std::string::npos;
    for (std::size_t header = model.find("%section ");
         header != std::string::npos;
         header = model.find("%section ", header + 1)) {
      newline = model.find('\n', header);
      if (model[newline - 1] == ' ') break;
    }
    ASSERT_EQ(model[newline - 1], ' ') << "no padded section header";
    std::string shifted = model;
    shifted.erase(newline - 1, 1);
    auto loaded = BepiSolver::Load(shifted);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().ToString().find("64-byte boundary"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(ModelV5Test, ServedModelReplacedByRenameKeepsAnswering) {
  const BepiSolver a = Preprocessed(test::SmallRmat(140, 600, 0.2, 5119));
  const BepiSolver b = Preprocessed(test::SmallRmat(140, 640, 0.2, 5123));
  const std::string path = TempPath("served.bepi");
  ASSERT_TRUE(a.SaveFile(path).ok());
  auto served = BepiSolver::LoadFile(path);
  ASSERT_TRUE(served.ok());
  TopKOptions topk;
  topk.k = 8;
  const Vector before = *served->Query(11);
  const TopKResult before_topk = *served->QueryTopK(11, topk);

  // SaveFile writes a temp file and renames it over the path: the served
  // solver keeps the old inode mapped, whatever happens to the path.
  ASSERT_TRUE(b.SaveFile(path).ok());
  auto fresh = BepiSolver::LoadFile(path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh->Query(11), *b.Query(11));
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_EQ(*served->Query(11), before);
  EXPECT_EQ(served->QueryTopK(11, topk)->entries, before_topk.entries);
  EXPECT_EQ(*fresh->Query(11), *b.Query(11));
}

TEST_F(ModelV5Test, LoadRecordsStageGauges) {
  const BepiSolver solver = Preprocessed(test::SmallRmat(80, 330, 0.2, 5129));
  const std::string path = TempPath("gauges.bepi");
  ASSERT_TRUE(solver.SaveFile(path).ok());
  SetMetricsEnabled(true);
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const char* stage : {"map", "verify", "validate", "bind"}) {
    registry.GetGauge(std::string("model.load_seconds.") + stage)->Reset();
  }
  ASSERT_TRUE(BepiSolver::LoadFile(path).ok());
  for (const char* stage : {"map", "verify", "validate", "bind"}) {
    EXPECT_GT(
        registry.GetGauge(std::string("model.load_seconds.") + stage)->value(),
        0.0)
        << stage;
  }
  SetMetricsEnabled(false);
}

}  // namespace
}  // namespace bepi
