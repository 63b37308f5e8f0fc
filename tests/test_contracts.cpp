// Tiered-contract subsystem tests (DESIGN.md §11): CHECK/DCHECK firing,
// stream-formatted messages, PLOS_CHECK_FINITE on NaN/Inf, handler
// registration, and one negative test per threaded contract site (QP,
// Cholesky, cutting plane, net framing, journal ordering). The DCHECK
// behavior tests cover both build flavors: with -DPLOS_CONTRACTS=ON the
// checked branches fire, without it they must compile away (conditions
// never evaluated).
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cutting_plane.hpp"
#include "data/dataset.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "net/serialize.hpp"
#include "obs/journal.hpp"
#include "qp/simplex_qp.hpp"

namespace plos {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- PLOS_CHECK ----------------------------------------------------------

TEST(Contracts, CheckPassesOnTrueCondition) {
  EXPECT_NO_THROW(PLOS_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Contracts, CheckThrowsPreconditionError) {
  EXPECT_THROW(PLOS_CHECK(false, "always fails"), PreconditionError);
}

TEST(Contracts, CheckMessageCarriesExpressionFileAndStreamedValues) {
  const int got = -3;
  try {
    PLOS_CHECK(got > 0, "need positive, got " << got);
    FAIL() << "PLOS_CHECK did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PLOS_CHECK failed"), std::string::npos) << what;
    EXPECT_NE(what.find("got > 0"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("need positive, got -3"), std::string::npos) << what;
  }
}

TEST(Contracts, CheckMessageOnlyBuiltOnFailure) {
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return std::string("message");
  };
  PLOS_CHECK(true, expensive());
  EXPECT_EQ(evaluations, 0);
}

TEST(Contracts, AssertIsCheckWithEmptyMessage) {
  EXPECT_NO_THROW(PLOS_ASSERT(true));
  EXPECT_THROW(PLOS_ASSERT(false), PreconditionError);
}

// ---- PLOS_DCHECK ---------------------------------------------------------

TEST(Contracts, DcheckBehaviorMatchesBuildFlavor) {
  int calls = 0;
  auto failing = [&]() {
    ++calls;
    return false;
  };
#if defined(PLOS_CONTRACTS)
  EXPECT_THROW(PLOS_DCHECK(failing(), "checked build fires"),
               PreconditionError);
  EXPECT_EQ(calls, 1);
  try {
    PLOS_DCHECK(false, "tier marker");
    FAIL() << "PLOS_DCHECK did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("PLOS_DCHECK failed"),
              std::string::npos);
  }
#else
  // Contracts off: the condition is type-checked but never evaluated.
  EXPECT_NO_THROW(PLOS_DCHECK(failing(), "compiled out"));
  EXPECT_EQ(calls, 0);
#endif
}

// ---- PLOS_CHECK_FINITE ---------------------------------------------------

TEST(Contracts, CheckFinitePassesThroughFiniteValues) {
  EXPECT_DOUBLE_EQ(PLOS_CHECK_FINITE(2.5), 2.5);
  EXPECT_DOUBLE_EQ(PLOS_CHECK_FINITE(-1e300), -1e300);
  EXPECT_DOUBLE_EQ(PLOS_CHECK_FINITE(0.0), 0.0);
  const double computed = PLOS_CHECK_FINITE(3.0 * 4.0);
  EXPECT_DOUBLE_EQ(computed, 12.0);
}

TEST(Contracts, CheckFiniteRejectsNanAndInf) {
  EXPECT_THROW(PLOS_CHECK_FINITE(kNan), PreconditionError);
  EXPECT_THROW(PLOS_CHECK_FINITE(kInf), PreconditionError);
  EXPECT_THROW(PLOS_CHECK_FINITE(-kInf), PreconditionError);
  try {
    PLOS_CHECK_FINITE(0.0 * kInf);
    FAIL() << "PLOS_CHECK_FINITE did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PLOS_CHECK_FINITE failed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("non-finite value"), std::string::npos) << what;
  }
}

// ---- failure handler -----------------------------------------------------

ContractViolation g_last{ContractKind::kCheck, "", "", 0, ""};
int g_handler_calls = 0;

void recording_handler(const ContractViolation& violation) {
  g_last = violation;
  ++g_handler_calls;
}

TEST(Contracts, RegisteredHandlerObservesViolationThenThrowStillHappens) {
  g_handler_calls = 0;
  ContractHandler previous = set_contract_handler(&recording_handler);
  EXPECT_EQ(previous, nullptr);

  EXPECT_THROW(PLOS_CHECK(2 < 1, "observed " << 42), PreconditionError);
  EXPECT_EQ(g_handler_calls, 1);
  EXPECT_EQ(g_last.kind, ContractKind::kCheck);
  EXPECT_EQ(std::string(g_last.expression), "2 < 1");
  EXPECT_EQ(g_last.message, "observed 42");
  EXPECT_GT(g_last.line, 0);

  // Restoring the default: returns the custom handler, stops observing.
  ContractHandler restored = set_contract_handler(nullptr);
  EXPECT_EQ(restored, &recording_handler);
  EXPECT_THROW(PLOS_CHECK(false, ""), PreconditionError);
  EXPECT_EQ(g_handler_calls, 1);
}

// ---- contract sites: QP --------------------------------------------------

// One block with planes e1, e2 under coupling 0: block Gram H = I.
std::vector<qp::SimplexBlock> identity_block(double linear) {
  std::vector<qp::SimplexBlock> blocks(1);
  blocks[0].append({1.0, 0.0}, linear);
  blocks[0].append({0.0, 1.0}, linear);
  return blocks;
}

TEST(ContractSites, CappedSimplexQpRejectsWarmStartSizeMismatch) {
  auto blocks = identity_block(1.0);
  blocks[0].gamma = linalg::Vector(3, 0.0);  // wrong size
  EXPECT_THROW(qp::solve_block_sweeps(blocks, 0.0, 1.0), PreconditionError);
}

TEST(ContractSites, CappedSimplexQpNonFiniteObjectiveTripsFinitenessGate) {
  // Every iterate stays finite inside the huge cap, but the objective
  // 0.5·x'Hx − l'x overflows to inf − inf = NaN.
  auto blocks = identity_block(1e200);
  EXPECT_THROW(qp::solve_block_sweeps(blocks, 0.0, 1e200), PreconditionError);
}

// ---- contract sites: linalg ----------------------------------------------

TEST(ContractSites, CholeskyRejectsNonSquare) {
  EXPECT_THROW(linalg::cholesky(linalg::Matrix(2, 3)), PreconditionError);
}

#if defined(PLOS_CONTRACTS)
TEST(ContractSites, CholeskyCheckedBuildRejectsAsymmetricInput) {
  linalg::Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(1, 1) = 3.0;
  a(0, 1) = 1.0;
  a(1, 0) = -1.0;  // asymmetric: lower triangle disagrees
  EXPECT_THROW(linalg::cholesky(a), PreconditionError);
}
#endif

// ---- contract sites: cutting plane ---------------------------------------

TEST(ContractSites, MostViolatedConstraintRejectsSignsSizeMismatch) {
  data::UserData user;
  user.samples = {linalg::Vector(2, 1.0)};
  user.true_labels = {1};
  user.revealed = {false};
  const auto ctx = core::PlosUserContext::from_user(user);
  const std::vector<int> wrong_signs;  // unlabeled has 1 entry, signs 0
  const linalg::Vector weights(2, 0.0);
  EXPECT_THROW(core::most_violated_constraint(ctx, wrong_signs, weights,
                                              1.0, 1.0),
               PreconditionError);
}

TEST(ContractSites, FitLocalDeviationRejectsNonPositiveLambda) {
  data::UserData user;
  user.samples = {linalg::Vector(2, 1.0)};
  user.true_labels = {1};
  user.revealed = {true};
  const auto ctx = core::PlosUserContext::from_user(user);
  const std::vector<int> signs;
  const linalg::Vector weights(2, 0.0);
  EXPECT_THROW(core::fit_local_deviation(ctx, signs, weights,
                                         /*lambda_over_t=*/0.0, 1.0, 1.0,
                                         1e-2, 5),
               PreconditionError);
}

// ---- contract sites: net framing -----------------------------------------

TEST(ContractSites, DeserializerUnderflowFires) {
  const std::vector<std::uint8_t> tiny{0x01, 0x02};
  net::Deserializer reader(tiny);
  EXPECT_THROW(reader.read_u32(), PreconditionError);
}

TEST(ContractSites, DeserializerRejectsOverflowingVectorLength) {
  // Length prefix 2^61: n * sizeof(double) wraps to 0 in 64 bits, so a
  // multiplying bound would pass; the divide-based contract must fire.
  net::Serializer writer;
  writer.write_u64(std::uint64_t{1} << 61);
  net::Deserializer reader(writer.buffer());
  EXPECT_THROW(reader.read_vector(), PreconditionError);
}

TEST(ContractSites, FrameRoundTripSatisfiesItsOwnPostcondition) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const auto frame = net::frame_message(payload);
  const auto back = net::unframe_message(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), back->begin()));
}

// ---- contract sites: journal ordering ------------------------------------

obs::RoundRecord make_record(const char* trainer, int round, int admm) {
  obs::RoundRecord record;
  record.trainer = trainer;
  record.cccp_round = round;
  record.admm_iteration = admm;
  return record;
}

TEST(ContractSites, JournalAcceptsMonotonicRounds) {
  obs::Journal journal;
  journal.append(make_record("distributed", 0, 0));
  journal.append(make_record("distributed", 0, 1));
  journal.append(make_record("distributed", 1, 0));
  journal.append(make_record("centralized", 0, -1));  // new trainer resets
  journal.append(make_record("centralized", 1, -1));
  EXPECT_EQ(journal.size(), 5u);
}

TEST(ContractSites, JournalRejectsOutOfOrderRound) {
  obs::Journal journal;
  journal.append(make_record("centralized", 2, -1));
  EXPECT_THROW(journal.append(make_record("centralized", 1, -1)),
               PreconditionError);
}

TEST(ContractSites, JournalRejectsDuplicateAdmmIteration) {
  obs::Journal journal;
  journal.append(make_record("distributed", 0, 3));
  EXPECT_THROW(journal.append(make_record("distributed", 0, 3)),
               PreconditionError);
}

}  // namespace
}  // namespace plos
