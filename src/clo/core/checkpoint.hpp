#pragma once
// Phase-level checkpoint/resume for the pipeline. After each pretraining
// phase (dataset labeling, surrogate training, diffusion training) the
// pipeline persists everything a resumed process needs to continue as if
// it had never died: the phase artifact itself, the Rng state at the phase
// boundary, and the phase's report entries. Files use the CLOCKPT1
// container — a versioned, CRC32-checksummed envelope whose payload embeds
// model weights in the existing CLONN1 format — and are written atomically
// (tmp + rename), so a kill mid-write leaves the previous checkpoint
// intact. A config-hash field ties every checkpoint to the exact
// (circuit, config) combination that produced it; resuming under a
// different configuration silently falls back to recomputing the phase.
//
// Checkpoint I/O is never load-bearing: any write or read failure
// (including the checkpoint.read / checkpoint.write fault-injection
// sites) degrades to "no checkpoint" and the pipeline recomputes.

#include <cstdint>
#include <string>
#include <vector>

#include "clo/core/dataset.hpp"
#include "clo/core/trainer.hpp"
#include "clo/models/diffusion.hpp"
#include "clo/util/rng.hpp"

namespace clo::core {

/// FNV-1a accumulator for the checkpoint config hash. Callers feed every
/// knob that changes a checkpointed phase's bits (circuit fingerprint,
/// seed, model/training hyperparameters; not the thread count, which
/// changes none) and compare the digest against the one stored in the
/// file.
class ConfigHasher {
 public:
  ConfigHasher& add(std::uint64_t v);
  ConfigHasher& add(double v);
  ConfigHasher& add(const std::string& s);
  std::uint64_t hash() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Everything phase 1 produced: the labeled dataset, the embedding
/// geometry, the baseline QoR, and the Rng state at the phase boundary.
struct DatasetCheckpoint {
  Qor original;
  std::vector<std::vector<float>> embedding_table;
  Dataset dataset;
  double seconds = 0.0;
  clo::Rng::State rng;
};

/// A trained model phase: weights as a CLONN1 blob (surrogate or
/// diffusion), the training report, and the boundary Rng state.
struct SurrogateCheckpoint {
  std::string weights;  ///< CLONN1 blob
  TrainReport report;
  double seconds = 0.0;
  clo::Rng::State rng;
};

struct DiffusionCheckpoint {
  std::string weights;  ///< CLONN1 blob
  models::DiffusionModel::TrainStats stats;
  double seconds = 0.0;
  clo::Rng::State rng;
};

/// One directory of phase checkpoints for one (circuit, config) pair.
/// save_* returns false instead of throwing on any failure; load_* returns
/// false for missing, truncated, corrupted (CRC), version-mismatched, or
/// config-mismatched files.
class CheckpointManager {
 public:
  CheckpointManager(std::string dir, std::uint64_t config_hash);

  bool save_dataset(const DatasetCheckpoint& c);
  bool save_surrogate(const SurrogateCheckpoint& c);
  bool save_diffusion(const DiffusionCheckpoint& c);

  bool load_dataset(DatasetCheckpoint* c);
  bool load_surrogate(SurrogateCheckpoint* c);
  bool load_diffusion(DiffusionCheckpoint* c);

  const std::string& dir() const { return dir_; }
  /// Full path of one phase's checkpoint file ("dataset", "surrogate",
  /// "diffusion").
  std::string path_for(const std::string& phase) const;

 private:
  bool write_file(const std::string& phase, std::uint32_t phase_id,
                  const std::string& payload);
  bool read_file(const std::string& phase, std::uint32_t phase_id,
                 std::string* payload);

  std::string dir_;
  std::uint64_t config_hash_;
};

}  // namespace clo::core
