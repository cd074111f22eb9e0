// Kill-safe preprocessing checkpoints. Preprocessing is the expensive
// phase the paper amortizes over millions of queries; at billion scale it
// runs for hours, and before this layer a crash anywhere inside it lost
// everything. A CheckpointManager snapshots the pipeline at stage
// boundaries (deadend reordering, each SlashBurn round, per-diagonal-block
// LU progress, the Schur complement) into a directory of checksummed,
// atomically written files, so `bepi_cli preprocess --checkpoint-dir=...`
// can be SIGKILLed at any point and resumed to the bit-identical model a
// from-scratch run would produce.
//
// Each checkpoint file is a section-framed stream (common/sections.hpp)
// with magic "BEPI-CKPT v3" whose first section, `meta`, binds it to a
// fingerprint of the (graph, options) pair and to its stage. Payloads are
// binary, in the encoding of model format v8 (PayloadWriter, and the CSR
// codec of sparse/io.hpp, arrays on 64-byte boundaries): a checkpointed S
// is the model's `schur` section byte for byte. Stale or corrupt
// checkpoints, and those of an older format (the v1 text and v2 binary
// checkpoints), are ignored with a warning and their stage is recomputed —
// resume never trades correctness for speed. tests/test_decoder_fuzz.cpp
// fuzzes every stage decoder behind valid checksums.
#ifndef BEPI_CORE_CHECKPOINT_HPP_
#define BEPI_CORE_CHECKPOINT_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace bepi {

class CheckpointManager {
 public:
  /// `dir` is created on the first Write if missing.
  explicit CheckpointManager(std::string dir);

  /// Binds subsequent reads/writes to a preprocessing identity. Reads of
  /// checkpoints written under a different fingerprint report NotFound
  /// (with a warning), so a changed graph or option set recomputes instead
  /// of resuming into a wrong model.
  void Bind(std::uint64_t fingerprint) { fingerprint_ = fingerprint; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Atomically replaces the checkpoint for `stage` with the given
  /// (name, payload) sections. After a successful commit the
  /// checkpoint.crash fault site, when armed, SIGKILLs the process — the
  /// hook the kill-and-resume smoke test is built on.
  Status Write(const std::string& stage,
               const std::vector<std::pair<std::string, std::string>>&
                   sections);

  /// The sections of `stage`'s checkpoint, keyed by name. NotFound when
  /// the checkpoint is absent, stale (fingerprint mismatch) or fails its
  /// integrity checks — callers recompute the stage in all three cases.
  Result<std::map<std::string, std::string>> Read(const std::string& stage);

  /// Takes back a successful Read of `stage` whose payloads the caller
  /// could not use (`why`): logs the same warning an unusable checkpoint
  /// gets, and it no longer counts in checkpoints_resumed().
  void Reject(const std::string& stage, const Status& why);

  /// Removes `stage`'s checkpoint file if present (used when a stage's
  /// inputs were recomputed, invalidating downstream snapshots).
  void Invalidate(const std::string& stage);

  const std::string& dir() const { return dir_; }

  // Overhead accounting. write_seconds() covers framing, write and fsync;
  // BepiPreprocessInfo::checkpoint_seconds adds the payload encoding the
  // caller does before Write.
  double write_seconds() const { return write_seconds_; }
  index_t checkpoints_written() const { return written_; }
  index_t checkpoints_resumed() const { return resumed_; }

 private:
  std::string FilePath(const std::string& stage) const;
  void Warn(const std::string& stage, const Status& why) const;

  std::string dir_;
  std::uint64_t fingerprint_ = 0;
  double write_seconds_ = 0.0;
  index_t written_ = 0;
  index_t resumed_ = 0;
};

/// Fingerprint of a preprocessing run: CRC32C over the adjacency structure
/// and weights combined with a caller-provided options tag. Two runs with
/// the same fingerprint produce bit-identical preprocessing artifacts.
std::uint64_t PreprocessFingerprint(const Graph& g,
                                    const std::string& options_tag);

}  // namespace bepi

#endif  // BEPI_CORE_CHECKPOINT_HPP_
