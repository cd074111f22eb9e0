// Structure-aware fuzzing of every binary decoder: the model loader and
// the checkpoint stage decoders. Each case edits one field of one section
// payload — a header field, a sampled array entry, a pad byte, or the
// payload's length — and re-frames the file so every checksum is valid.
// Only validation stands between such a payload and the query kernels, so
// each case must either be rejected with a Status naming the section, or
// load into a solver that answers (or refuses) a query without crashing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/fileio.hpp"
#include "common/rng.hpp"
#include "common/sections.hpp"
#include "core/bepi.hpp"
#include "core/checkpoint.hpp"
#include "core/decomposition.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// Arrays in a section payload start at a multiple of this many bytes
/// from the payload start (PayloadWriter pads with zero bytes).
constexpr std::size_t kArrayAlign = 64;

constexpr char kCheckpointMagic[] = "BEPI-CKPT v3";

/// One mutable location in a payload.
struct Field {
  enum Kind { kHeader, kIndex, kReal, kFloat, kPad };
  Kind kind;
  std::string label;
  std::size_t offset;
  std::size_t size;  // bytes of one entry (header fields: 8)
  std::uint64_t count = 1;  // entries (arrays) or bytes (pads)
};

/// Walks a payload in its encoding order and records where each field
/// lives. Reads are bounds-checked; a layout that does not fit the payload
/// marks the walk failed (the fuzz then has nothing to map).
class Layout {
 public:
  explicit Layout(const std::string& payload) : payload_(payload) {}

  std::uint64_t Header(const std::string& label) {
    std::uint64_t v = 0;
    if (!Take(sizeof(v))) return 0;
    std::memcpy(&v, payload_.data() + pos_ - sizeof(v), sizeof(v));
    fields_.push_back({Field::kHeader, label, pos_ - sizeof(v), sizeof(v)});
    return v;
  }
  /// An 8-byte field the decoder cannot validate (a real number or a
  /// statistic): skipped by the fuzz.
  void Opaque() { Take(8); }
  void Align() {
    const std::size_t pad = (kArrayAlign - pos_ % kArrayAlign) % kArrayAlign;
    if (pad > 0 && Take(pad)) {
      fields_.push_back({Field::kPad, "pad", pos_ - pad, 1, pad});
    }
  }
  void Indices(const std::string& label, std::uint64_t count,
               std::uint64_t width) {
    Align();
    if (width != 4 && width != 8) {
      ok_ = false;
      return;
    }
    if (count > (payload_.size() - pos_) / width) {
      ok_ = false;
      return;
    }
    fields_.push_back({Field::kIndex, label, pos_,
                       static_cast<std::size_t>(width), count});
    pos_ += static_cast<std::size_t>(count * width);
  }
  void Reals(const std::string& label, std::uint64_t count) {
    Values(Field::kReal, label, count, sizeof(double));
  }
  void Floats(const std::string& label, std::uint64_t count) {
    Values(Field::kFloat, label, count, sizeof(float));
  }
  void IndexArray(const std::string& label) {
    const std::uint64_t count = Header(label + ".count");
    const std::uint64_t width = Header(label + ".width");
    Indices(label, count, width);
  }
  void Matrix(const std::string& label) {
    const std::uint64_t rows = Header(label + ".rows");
    Header(label + ".cols");
    const std::uint64_t nnz = Header(label + ".nnz");
    const std::uint64_t width = Header(label + ".width");
    Indices(label + ".row_ptr", rows + 1, width);
    Indices(label + ".col_idx", nnz, width);
    Reals(label + ".values", nnz);
  }
  void Text(const std::string& label) {
    const std::uint64_t size = Header(label + ".size");
    if (size > payload_.size() - pos_) {
      ok_ = false;
      return;
    }
    pos_ += static_cast<std::size_t>(size);
  }

  /// Whether the walk consumed the payload exactly.
  bool ok() const { return ok_ && pos_ == payload_.size(); }
  const std::vector<Field>& fields() const { return fields_; }

 private:
  void Values(Field::Kind kind, const std::string& label, std::uint64_t count,
              std::size_t size) {
    Align();
    if (count > (payload_.size() - pos_) / size) {
      ok_ = false;
      return;
    }
    fields_.push_back({kind, label, pos_, size, count});
    pos_ += static_cast<std::size_t>(count * size);
  }

  bool Take(std::size_t n) {
    if (!ok_ || n > payload_.size() - pos_) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::string& payload_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::vector<Field> fields_;
};

/// The fields of section `name` (model or checkpoint), in encoding order,
/// for a model whose S is n2 x n2 with `schur_nnz` nonzeros.
std::vector<Field> MapSection(const std::string& name,
                              const std::string& payload, std::uint64_t n2,
                              std::uint64_t schur_nnz) {
  Layout l(payload);
  if (name == "options") {
    l.Header("mode");
    l.Opaque();  // restart probability
    l.Opaque();  // tolerance
    l.Header("max_iterations");
    l.Header("gmres_restart");
    l.Opaque();  // hub ratio
  } else if (name == "perm") {
    const std::uint64_t n = l.Header("n");
    l.Header("n1");
    l.Header("n2");
    l.Header("n3");
    l.Indices("perm", n, l.Header("width"));
  } else if (name == "blocks") {
    l.IndexArray("blocks");
  } else if (name == "ilu0") {
    l.Floats("ilu0.triangles", schur_nnz - n2);
    l.Reals("ilu0.pivots", n2);
  } else if (name == "kernel") {
    l.Header("path");
  } else if (name == "meta") {
    l.Header("fingerprint");
    l.Text("stage");
  } else if (name == "deadend") {
    l.Header("non_deadends");
    l.Header("deadends");
    l.IndexArray("perm");
  } else if (name == "round") {
    l.Header("spokes");
    l.Header("hubs");
    l.Opaque();  // rounds: a statistic
    l.IndexArray("perm");
    l.IndexArray("blocks");
  } else if (name == "slashburn" || name == "product_nnz") {
    l.Opaque();  // statistics no decoder can check
  } else if (name == "progress") {
    l.Header("progress");
  } else {
    l.Matrix(name);
  }
  EXPECT_TRUE(l.ok()) << "layout of section '" << name << "' does not fit";
  return l.fields();
}

/// One edit of one section payload.
struct Mutation {
  std::string section;
  std::string what;
  std::function<void(std::string*)> edit;
  /// An edit of a header field, a pad or the length: structure a decoder
  /// can always check. (A sampled array entry may be replaced by another
  /// valid one, which no decoder can tell from real content.)
  bool structural = true;
};

std::uint64_t ReadEntry(const std::string& p, std::size_t at,
                        std::size_t size) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.data() + at, size);
  return v;
}

void WriteEntry(std::string* p, std::size_t at, std::size_t size,
                std::uint64_t v) {
  std::memcpy(p->data() + at, &v, size);
}

/// Boundary values for an integer entry of `size` bytes holding `v`, in a
/// model of `n` nodes, with `neighbour` the value of an adjacent field.
std::vector<std::uint64_t> BoundaryValues(std::uint64_t v, std::uint64_t n,
                                          std::uint64_t neighbour,
                                          std::size_t size) {
  std::vector<std::uint64_t> out = {0,     ~std::uint64_t{0}, v - 1, v + 1,
                                    n - 1, n,                 neighbour,
                                    std::uint64_t{1} << 31};
  if (size == 8) out.push_back(std::uint64_t{1} << 40);
  const std::uint64_t mask =
      size == 8 ? ~std::uint64_t{0} : std::uint64_t{0xFFFFFFFF};
  std::vector<std::uint64_t> distinct;
  for (std::uint64_t x : out) {
    x &= mask;
    if (x == v) continue;
    bool seen = false;
    for (std::uint64_t d : distinct) seen = seen || d == x;
    if (!seen) distinct.push_back(x);
  }
  return distinct;
}

/// Every mutation of section `name`: boundary values in each header field
/// and in `samples` seeded entries of each array, non-finite, zero and
/// tiny reals in sampled f64 entries, non-finite values in sampled f32
/// entries, nonzero pads, and payloads cut or extended by 1, 8 and 64
/// bytes.
std::vector<Mutation> Mutations(const std::string& name,
                                const std::string& payload, std::uint64_t n,
                                std::uint64_t n2, std::uint64_t schur_nnz,
                                int samples, Rng* rng) {
  std::vector<Mutation> out;
  const std::vector<Field> fields =
      MapSection(name, payload, n2, schur_nnz);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const Field& field = fields[f];
    if (field.kind == Field::kPad) {
      out.push_back({name, field.label + " nonzero", [field](std::string* p) {
                       (*p)[field.offset + field.count - 1] = 1;
                     }});
      continue;
    }
    if (field.count == 0) continue;
    std::vector<std::uint64_t> entries;
    if (field.kind == Field::kHeader) {
      entries = {0};
    } else {
      entries = {0, field.count - 1};
      for (int s = 0; s < samples; ++s) {
        entries.push_back(rng->NextBounded(field.count));
      }
    }
    for (std::uint64_t e : entries) {
      const std::size_t at = field.offset + static_cast<std::size_t>(e) *
                                                field.size;
      const std::string label = field.label + "[" + std::to_string(e) + "]";
      if (field.kind == Field::kReal) {
        for (double x : {0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 1e-300}) {
          out.push_back({name, label + " = " + std::to_string(x),
                         [at, x](std::string* p) {
                           std::memcpy(p->data() + at, &x, sizeof(x));
                         },
                         false});
        }
        continue;
      }
      if (field.kind == Field::kFloat) {
        for (float x : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity()}) {
          out.push_back({name, label + " = " + std::to_string(x),
                         [at, x](std::string* p) {
                           std::memcpy(p->data() + at, &x, sizeof(x));
                         },
                         false});
        }
        continue;
      }
      const std::uint64_t v = ReadEntry(payload, at, field.size);
      std::uint64_t neighbour = v;
      if (field.kind == Field::kIndex && field.count > 1) {
        const std::uint64_t other = e + 1 < field.count ? e + 1 : e - 1;
        const std::size_t at_other =
            field.offset + static_cast<std::size_t>(other) * field.size;
        neighbour = ReadEntry(payload, at_other, field.size);
      } else if (field.kind == Field::kHeader && fields.size() > 1) {
        const Field& other = fields[f + 1 < fields.size() ? f + 1 : f - 1];
        if (other.kind == Field::kHeader) {
          neighbour = ReadEntry(payload, other.offset, 8);
        }
      }
      for (std::uint64_t x : BoundaryValues(v, n, neighbour, field.size)) {
        const std::size_t size = field.size;
        out.push_back({name, label + " = " + std::to_string(x),
                       [at, size, x](std::string* p) {
                         WriteEntry(p, at, size, x);
                       },
                       field.kind == Field::kHeader});
      }
    }
  }
  for (std::size_t delta : {1, 8, 64}) {
    if (delta <= payload.size()) {
      out.push_back({name, "cut by " + std::to_string(delta),
                     [delta](std::string* p) {
                       p->resize(p->size() - delta);
                     }});
    }
    out.push_back({name, "extended by " + std::to_string(delta),
                   [delta](std::string* p) { p->append(delta, '\0'); }});
  }
  return out;
}

/// The section names of a framed file, in order.
std::vector<std::pair<std::string, std::string>> Sections(
    const std::string& framed, std::string_view magic) {
  std::vector<std::pair<std::string, std::string>> out;
  auto reader = SectionReader::Open(framed, magic);
  EXPECT_TRUE(reader.ok());
  if (!reader.ok()) return out;
  for (;;) {
    auto next = reader->Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next->has_value()) break;
    out.emplace_back((*next)->name, std::string((*next)->payload));
  }
  return out;
}

/// Whether `message` names `section` the way decoder errors do, or a
/// section validated against it: the ILU(0) factors are checked over S's
/// pattern.
bool NamesSection(const std::string& message, const std::string& section) {
  std::vector<std::string> names = {section};
  if (section == "schur") names.push_back("ilu0");
  for (const std::string& name : names) {
    if (message.find("'" + name + "'") != std::string::npos) return true;
  }
  return false;
}

TEST(DecoderFuzz, ModelSections) {
  Graph g = test::SmallRmat(70, 300, 0.2, 4001);
  BepiOptions options;
  options.max_iterations = 300;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  std::ostringstream saved;
  ASSERT_TRUE(solver.Save(saved).ok());
  const std::string model = saved.str();
  const auto n = static_cast<std::uint64_t>(solver.decomposition().n);
  const auto n2 = static_cast<std::uint64_t>(solver.decomposition().n2);
  const auto schur_nnz =
      static_cast<std::uint64_t>(solver.kernels()->schur.nnz());
  ASSERT_GT(n2, 0u);

  Rng rng(4003);
  int rejected = 0, loaded = 0;
  for (const auto& [name, payload] : Sections(model, BepiSolver::kModelMagic)) {
    for (const Mutation& m :
         Mutations(name, payload, n, n2, schur_nnz, 2, &rng)) {
      SCOPED_TRACE(m.section + ": " + m.what);
      const std::string framed = test::ReframeSection(
          model, BepiSolver::kModelMagic, m.section, m.edit);
      Result<BepiSolver> load = BepiSolver::Load(framed);
      if (!load.ok()) {
        ++rejected;
        const std::string message = load.status().ToString();
        EXPECT_TRUE(NamesSection(message, m.section)) << message;
        continue;
      }
      ++loaded;
      // A payload that passes validation must be safe to query: each call
      // answers or returns a Status.
      QueryStats stats;
      (void)load->Query(3, &stats);
      TopKOptions topk;
      topk.k = 5;
      (void)load->QueryTopK(3, topk);
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);
}

/// Stage checkpoint files from a full run (reorder, factor, schur) and
/// from a run cancelled before its first SlashBurn round (deadend,
/// slashburn.round).
class CheckpointFuzz {
 public:
  // The default snapshot interval: a build this small writes each stage
  // once, which keeps a case to a handful of fsyncs.
  CheckpointFuzz(const Graph& g, std::string dir)
      : g_(g), dir_(std::move(dir)) {}

  DecompositionOptions options() const { return options_; }

  /// Runs the build into a fresh `dir_` (cancelled before SlashBurn when
  /// `cancelled`) and returns the stage files it left, by stage.
  std::map<std::string, std::string> Produce(bool cancelled) {
    std::filesystem::remove_all(dir_);
    CancelToken cancel;
    DecompositionOptions options = options_;
    if (cancelled) {
      cancel.Cancel();
      options.cancel = &cancel;
    }
    CheckpointManager manager(dir_);
    manager.Bind(PreprocessFingerprint(g_, "tag"));
    (void)BuildDecomposition(g_, options, nullptr, &manager);
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string file = entry.path().filename().string();
      const std::string stage = file.substr(0, file.size() - 5);  // ".ckpt"
      Result<std::string> bytes = ReadFileToString(entry.path().string());
      EXPECT_TRUE(bytes.ok());
      if (bytes.ok()) files[stage] = *bytes;
    }
    return files;
  }

  /// Writes `files` (one of them edited) into a fresh `dir_` and builds
  /// over them; returns the build and how many stages it resumed.
  Result<HubSpokeDecomposition> Build(
      const std::map<std::string, std::string>& files, index_t* resumed) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (const auto& [stage, bytes] : files) {
      std::ofstream out(dir_ + "/" + stage + ".ckpt", std::ios::binary);
      out << bytes;
    }
    CheckpointManager manager(dir_);
    manager.Bind(PreprocessFingerprint(g_, "tag"));
    Result<HubSpokeDecomposition> dec =
        BuildDecomposition(g_, options_, nullptr, &manager);
    *resumed = manager.checkpoints_resumed();
    return dec;
  }

  ~CheckpointFuzz() { std::filesystem::remove_all(dir_); }

 private:
  const Graph& g_;
  std::string dir_;
  DecompositionOptions options_;
};

bool SameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values() == b.values();
}

/// The parts of a decomposition the model is made of.
bool SameDecomposition(const HubSpokeDecomposition& a,
                       const HubSpokeDecomposition& b) {
  return a.n == b.n && a.n1 == b.n1 && a.n2 == b.n2 && a.n3 == b.n3 &&
         a.perm == b.perm && a.block_sizes == b.block_sizes &&
         SameCsr(a.h11, b.h11) && SameCsr(a.h12, b.h12) &&
         SameCsr(a.h21, b.h21) && SameCsr(a.h22, b.h22) &&
         SameCsr(a.h31, b.h31) && SameCsr(a.h32, b.h32) &&
         SameCsr(a.l1_inv, b.l1_inv) && SameCsr(a.u1_inv, b.u1_inv) &&
         SameCsr(a.schur, b.schur);
}

TEST(DecoderFuzz, CheckpointSections) {
  Graph g = test::SmallRmat(60, 250, 0.2, 4007);
  CheckpointFuzz fuzz(g, testing::TempDir() + "/decoder_fuzz_ckpt");
  auto scratch = BuildDecomposition(g, fuzz.options(), nullptr);
  ASSERT_TRUE(scratch.ok());
  const auto n = static_cast<std::uint64_t>(scratch->n);
  const auto n2 = static_cast<std::uint64_t>(scratch->n2);

  Rng rng(4009);
  int rejected = 0;
  for (const bool cancelled : {false, true}) {
    const std::map<std::string, std::string> files = fuzz.Produce(cancelled);
    ASSERT_EQ(files.size(), cancelled ? 2u : 3u);
    index_t baseline = 0;
    ASSERT_TRUE(fuzz.Build(files, &baseline).ok());
    for (const auto& [stage, framed] : files) {
      for (const auto& [name, payload] : Sections(framed, kCheckpointMagic)) {
        // Checkpoints hold no ILU(0) factors, so no S nonzero count.
        for (const Mutation& m :
             Mutations(name, payload, n, n2, /*schur_nnz=*/0, 1, &rng)) {
          SCOPED_TRACE(stage + "." + m.section + ": " + m.what);
          std::map<std::string, std::string> edited = files;
          edited[stage] = test::ReframeSection(framed, kCheckpointMagic,
                                               m.section, m.edit);
          index_t resumed = 0;
          Result<HubSpokeDecomposition> dec = fuzz.Build(edited, &resumed);
          ASSERT_TRUE(dec.ok()) << dec.status().ToString();
          if (resumed < baseline) ++rejected;
          // A rejected stage is recomputed from scratch; an accepted
          // structural edit must not have changed what the stage holds.
          if (resumed < baseline || m.structural) {
            EXPECT_TRUE(SameDecomposition(*scratch, *dec));
          }
        }
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace bepi
