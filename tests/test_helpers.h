#ifndef TCROWD_TESTS_TEST_HELPERS_H_
#define TCROWD_TESTS_TEST_HELPERS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/answer.h"
#include "data/schema.h"
#include "data/table.h"
#include "inference/em_executor.h"
#include "inference/inference_result.h"
#include "inference/tcrowd_model.h"
#include "simulation/crowd_simulator.h"
#include "simulation/table_generator.h"

namespace tcrowd::testing {

/// A hand-built 5-worker scenario over one categorical column where the
/// majority is WRONG on the contested cell (row 0) but the reliable workers
/// are right: the classic case separating worker-quality methods from
/// majority voting.
///
/// Column: 3 labels, 12 rows. Workers 0 and 1 always answer the truth. The
/// three sloppy workers 2,3,4 coordinate on a wrong label on row 0 (tipping
/// the vote) and are individually noisy on the other rows — each answers
/// correctly with probability ~0.5 and their mistakes DISAGREE, so a
/// quality-aware method has the evidence to identify them.
struct MajorityWrongScenario {
  Schema schema{{Schema::MakeCategorical("c", {"a", "b", "c"})}};
  Table truth;
  AnswerSet answers;

  MajorityWrongScenario() : truth(schema, 12), answers(12, 1) {
    Rng rng(12345);
    std::vector<int> labels(12);
    for (int i = 0; i < 12; ++i) {
      labels[i] = rng.UniformInt(0, 2);
      truth.Set(i, 0, Value::Categorical(labels[i]));
    }
    for (int i = 0; i < 12; ++i) {
      for (WorkerId w = 0; w < 2; ++w) {
        answers.Add(w, CellRef{i, 0}, Value::Categorical(labels[i]));
      }
      for (WorkerId w = 2; w < 5; ++w) {
        int label;
        if (i == 0) {
          label = (labels[i] + 1) % 3;  // coordinated wrong vote
        } else if (rng.Bernoulli(0.5)) {
          label = labels[i];
        } else {
          // Mistakes spread across the two wrong labels, per worker.
          label = (labels[i] + 1 + (w % 2)) % 3;
        }
        answers.Add(w, CellRef{i, 0}, Value::Categorical(label));
      }
    }
  }
};

/// A simulated mixed-type world with a long-tail worker pool; the workhorse
/// fixture for inference-quality tests. All parameters are deterministic in
/// `seed`.
struct SimWorld {
  sim::GeneratedTable world;
  sim::CrowdSimulator crowd;
  AnswerSet answers;

  static sim::TableGeneratorOptions DefaultTable() {
    sim::TableGeneratorOptions opt;
    opt.num_rows = 40;
    opt.num_cols = 6;
    opt.categorical_ratio = 0.5;
    return opt;
  }

  static sim::CrowdOptions DefaultCrowd() {
    sim::CrowdOptions opt;
    opt.num_workers = 15;
    opt.phi_median = 0.3;
    opt.phi_log_sigma = 0.8;
    opt.unfamiliar_prob = 0.2;
    return opt;
  }

  explicit SimWorld(uint64_t seed, int answers_per_task = 4,
                    sim::TableGeneratorOptions topt = DefaultTable(),
                    sim::CrowdOptions copt = DefaultCrowd())
      : world(MakeWorld(topt, seed)),
        crowd(copt, world.schema, world.truth, world.row_difficulty,
              world.col_difficulty,
              sim::CrowdSimulator::DefaultColumnScales(world.schema),
              Rng(seed + 1)),
        answers(world.truth.num_rows(), world.schema.num_columns()) {
    if (answers_per_task > 0) {
      crowd.SeedAnswers(answers_per_task, &answers);
    }
  }

 private:
  static sim::GeneratedTable MakeWorld(const sim::TableGeneratorOptions& opt,
                                       uint64_t seed) {
    Rng rng(seed);
    return sim::GenerateTable(opt, &rng);
  }
};

// ---------------------------------------------------------------------------
// Shared corruption-fuzz harness: the canonical mutation matrix every codec
// hardening test in this repo runs — every byte position flipped with each
// of the masks {0x01, 0x80, 0xff} (low bit, high bit, all bits), plus
// truncation at every length. Used by test_segment_codec.cc,
// test_event_log.cc, and test_net_protocol.cc so the matrix stays identical
// across the three wire formats.

/// The three canonical flip masks.
inline const std::vector<unsigned char>& FuzzFlipMasks() {
  static const std::vector<unsigned char> kMasks = {0x01, 0x80, 0xff};
  return kMasks;
}

/// Strict-codec matrix: `decode(data, size)` returns whether the codec
/// accepted the bytes. Every single-byte flip and every proper-prefix
/// truncation of a valid encoding must be REFUSED (CRC / length / shape
/// guards) — a single silent acceptance fails the test.
inline void RunStrictCodecFuzz(
    const std::string& bytes,
    const std::function<bool(const char* data, size_t size)>& decode,
    const std::string& what) {
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char mask : FuzzFlipMasks()) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      EXPECT_FALSE(decode(mutated.data(), mutated.size()))
          << what << ": flip mask 0x" << std::hex << int(mask)
          << " at byte " << std::dec << pos << " silently accepted";
    }
  }
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode(bytes.data(), cut))
        << what << ": truncation to " << cut << " bytes silently accepted";
  }
}

/// What a lenient decoder reports back to the matrix driver.
struct FuzzReplay {
  /// Whole stream items (records/events/frames) that survived the decode.
  size_t items = 0;
  /// The decoder's torn/corrupt-tail verdict.
  bool truncated = false;
};

/// Lenient-codec (clean-prefix) matrix over a stream of items.
/// `boundaries` are the cumulative END offsets of each whole item, starting
/// with 0 — boundaries.size() == items + 1 and boundaries.back() ==
/// bytes.size(). `decode(data, size, &replay)` runs the codec's lenient
/// reader, fills the replay, and must ITSELF assert the surviving items are
/// a bit-exact prefix of the pristine ones (returning false fails fast).
///
/// The matrix asserts the codec's recovery contract:
///  - a flip anywhere loses exactly the items from the damaged one on
///    (survivors == items wholly before the flipped byte) and marks the
///    stream truncated — every byte is integrity-covered, so no mutation
///    may go unnoticed;
///  - a cut keeps exactly the items wholly before it, and only a cut on an
///    item boundary decodes as NOT truncated.
inline void RunCleanPrefixFuzz(
    const std::string& bytes, const std::vector<size_t>& boundaries,
    const std::function<bool(const char* data, size_t size,
                             FuzzReplay* replay)>& decode,
    const std::string& what) {
  ASSERT_GE(boundaries.size(), 2u) << what;
  ASSERT_EQ(boundaries.front(), 0u) << what;
  ASSERT_EQ(boundaries.back(), bytes.size()) << what;

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    size_t intact = 0;
    while (boundaries[intact + 1] <= pos) ++intact;
    for (unsigned char mask : FuzzFlipMasks()) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      FuzzReplay replay;
      ASSERT_TRUE(decode(mutated.data(), mutated.size(), &replay))
          << what << ": flip at byte " << pos;
      EXPECT_TRUE(replay.truncated)
          << what << ": flip mask 0x" << std::hex << int(mask)
          << " at byte " << std::dec << pos << " silently accepted";
      EXPECT_EQ(replay.items, intact)
          << what << ": flip mask 0x" << std::hex << int(mask)
          << " at byte " << std::dec << pos;
    }
  }

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    // Items wholly before the cut.
    size_t whole = 0;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) whole = i;
    }
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    FuzzReplay replay;
    ASSERT_TRUE(decode(bytes.data(), cut, &replay))
        << what << ": cut at " << cut;
    EXPECT_EQ(replay.truncated, !at_boundary) << what << ": cut at " << cut;
    EXPECT_EQ(replay.items, whole) << what << ": cut at " << cut;
  }
}

/// Bit-pattern equality: the one comparison the durability and wire
/// guarantees are made of (NaNs and signed zeros included).
inline bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// Expects two values equal, continuous ones down to the bit pattern.
inline void ExpectSameValue(const Value& a, const Value& b) {
  ASSERT_EQ(a.valid(), b.valid());
  if (!a.valid()) return;
  ASSERT_EQ(a.is_categorical(), b.is_categorical());
  if (a.is_categorical()) {
    EXPECT_EQ(a.label(), b.label());
  } else {
    EXPECT_TRUE(SameBits(a.number(), b.number()));
  }
}

/// Expects two answer lists equal, values bit-exact.
inline void ExpectSameAnswers(const std::vector<Answer>& a,
                              const std::vector<Answer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "answer " << k);
    EXPECT_EQ(a[k].worker, b[k].worker);
    EXPECT_EQ(a[k].cell.row, b[k].cell.row);
    EXPECT_EQ(a[k].cell.col, b[k].cell.col);
    ExpectSameValue(a[k].value, b[k].value);
  }
}

/// `model`'s batch fit on an EmExecutor of `num_shards` shards. With the
/// engine's tcrowd_options and num_shards this is the fit the engine's
/// Finalize() reproduces bit-for-bit.
inline InferenceResult InferOnShards(const TCrowdModel& model,
                                     const Schema& schema,
                                     const AnswerSet& answers,
                                     int num_shards) {
  EmExecutor executor(num_shards);
  return TCrowdModel::StateToResult(model.Fit(schema, answers, &executor));
}

/// Cell-by-cell table comparison; `tol == 0.0` demands bit-identical
/// continuous estimates (EXPECT_NEAR with a zero bound is exact equality).
inline void ExpectTablesMatch(const Schema& schema, const Table& a,
                              const Table& b, double tol) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int i = 0; i < a.num_rows(); ++i) {
    for (int j = 0; j < schema.num_columns(); ++j) {
      const Value& va = a.at(i, j);
      const Value& vb = b.at(i, j);
      ASSERT_EQ(va.valid(), vb.valid()) << "cell " << i << "," << j;
      if (!va.valid()) continue;
      if (va.is_categorical()) {
        EXPECT_EQ(va.label(), vb.label()) << "cell " << i << "," << j;
      } else {
        EXPECT_NEAR(va.number(), vb.number(), tol)
            << "cell " << i << "," << j;
      }
    }
  }
}

}  // namespace tcrowd::testing

#endif  // TCROWD_TESTS_TEST_HELPERS_H_
