/**
 * @file
 * Shard-ownership checker tests (sim/ownership.hh).
 *
 * Three properties, matching the checker's contract:
 *
 *  1. Clean engine runs: every registered kernel, at engine-threads
 *     1/2/8, completes with the checker armed and still matches the
 *     sequential reference. The armed engine also asserts its
 *     worklist invariants in every serial tail — every non-quiet tile
 *     and every router holding a message is on its shard's active
 *     list — and work conservation: the pending-entry counters match
 *     the queues, and injected messages are delivered or in flight.
 *     In builds where the checker is compiled out this
 *     degenerates to a plain correctness matrix (still worth
 *     running); the checked variant is exercised by the
 *     Debug/sanitizer CI configurations.
 *
 *  2. The checker actually fires: a deliberate cross-shard write via
 *     Machine::debugInjectOwnershipViolation() panics (death test),
 *     as does an out-of-range checkWrite under a live claim, an
 *     unclaimed write while a foreign thread holds a claim, a tile
 *     made busy behind its worklist's back, and an IQ entry pushed
 *     behind its tile's counters.
 *
 *  3. Zero overhead when disabled: the hook macros expand to
 *     noexcept constant no-op expressions, checked at compile time,
 *     so no checker call can survive into Release hot paths.
 */

#include <gtest/gtest.h>

#include <thread>

#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"
#include "sim/ownership.hh"

namespace dalorex
{
namespace
{

// ---- 3. compile-time guard --------------------------------------

#if !DALOREX_OWNERSHIP_CHECKS
// The disabled expansions must be constant no-ops: noexcept, void,
// and evaluable with arbitrary (even nonsense) arguments. If a real
// function call ever leaks into the disabled path, these fail to
// compile rather than silently costing cycles.
static_assert(noexcept(DLX_OWN_WRITE(nullptr, 0u, "guard")),
              "disabled DLX_OWN_WRITE must be a noexcept no-op");
static_assert(noexcept(DLX_OWN_SCOPE(nullptr, "guard", 0u, 0u)),
              "disabled DLX_OWN_SCOPE must be a noexcept no-op");
static_assert(
    std::is_void_v<decltype(DLX_OWN_WRITE(nullptr, 0u, "guard"))>,
    "disabled DLX_OWN_WRITE must evaluate to void");
#endif

const Csr&
smallGraph()
{
    static const Csr graph = [] {
        RmatParams params;
        params.scale = 8;
        params.edgeFactor = 6;
        params.seed = 33;
        return rmatGraph(params);
    }();
    return graph;
}

// ---- 1. clean runs across the kernel x threads matrix ----------

class OwnershipMatrix
    : public ::testing::TestWithParam<
          std::tuple<const KernelInfo*, unsigned>>
{
};

TEST_P(OwnershipMatrix, KernelPassesChecker)
{
    const auto [kernel, threads] = GetParam();
    KernelSetup setup = makeKernelSetup(*kernel, smallGraph());
    setup.iterations = 3;
    MachineConfig config;
    config.width = 4;
    config.height = 4;
    config.engineThreads = threads;
    auto app = setup.makeApp();
    Machine machine(config, setup.graph.numVertices,
                    setup.graph.numEdges);
    machine.run(*app);
    if (setup.floatResult()) {
        const std::vector<double> got = app->gatherFloats(machine);
        const std::vector<double> want = setup.referenceFloats();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t v = 0; v < got.size(); ++v)
            ASSERT_NEAR(got[v], want[v],
                        std::max(1e-9, 1e-3 * want[v]))
                << "vertex " << v;
    } else {
        ASSERT_EQ(app->gatherValues(machine),
                  setup.referenceWords());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, OwnershipMatrix,
    ::testing::Combine(::testing::ValuesIn(allKernels()),
                       ::testing::Values(1u, 2u, 8u)),
    [](const auto& info) {
        return std::get<0>(info.param)->display + "_t" +
               std::to_string(std::get<1>(info.param));
    });

// ---- 2. the checker fires on violations -------------------------

#if DALOREX_OWNERSHIP_CHECKS

// The checker's claims live in global state, so fork-based death
// tests must re-execute rather than fork mid-state (and one test
// forks with a second thread alive). GTEST_FLAG_SET is gtest >= 1.12;
// fall back to the flag variable on older releases.
void
useThreadsafeDeathTests()
{
#if defined(GTEST_FLAG_SET)
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
}

TEST(OwnershipDeathTest, InjectedEngineViolationPanics)
{
    useThreadsafeDeathTests();
    MachineConfig config;
    config.width = 4;
    config.height = 1;
    Machine machine(config, 64, 256);
    EXPECT_DEATH(machine.debugInjectOwnershipViolation(),
                 "ownership");
}

/**
 * A kernel that breaks the worklist contract: its one task makes the
 * next tile busy by writing that tile's PU directly, instead of
 * through a delivery, seed or host charge that would queue the tile.
 * The busy tile would never be stepped.
 */
class WorklistBypassApp : public App
{
  public:
    const char* name() const override { return "worklist-bypass"; }

    void
    configure(Machine& machine) override
    {
        TaskDef poke;
        poke.name = "poke";
        poke.fn = [](Machine& m, Tile& tile, TaskCtx&) {
            m.tile(tile.id + 1).pu.busyUntil = 1000;
        };
        machine.addTask(poke);
    }

    void start(Machine& machine) override { machine.seed(0, 0, {0}); }
};

TEST(OwnershipDeathTest, TileBusyOffItsWorklistPanics)
{
    useThreadsafeDeathTests();
    MachineConfig config;
    config.width = 4;
    config.height = 1;
    EXPECT_DEATH(
        {
            WorklistBypassApp app;
            Machine machine(config, 64, 256);
            machine.run(app);
        },
        "worklist invariant: tile 1");
}

/**
 * A kernel that breaks work conservation: its one task pushes into
 * its own tile's IQ directly instead of through TaskCtx, so the queue
 * holds an entry no pending counter knows of. Unchecked, the run
 * would end with that entry never executed.
 */
class QueueBypassApp : public App
{
  public:
    const char* name() const override { return "queue-bypass"; }

    void
    configure(Machine& machine) override
    {
        TaskDef stash;
        stash.name = "stash";
        stash.fn = [](Machine&, Tile& tile, TaskCtx&) {
            const Word word = 0;
            tile.iqs[0].push(&word);
        };
        machine.addTask(stash);
    }

    void start(Machine& machine) override { machine.seed(0, 0, {0}); }
};

TEST(OwnershipDeathTest, QueuePushBehindItsCountersPanics)
{
    useThreadsafeDeathTests();
    MachineConfig config;
    config.width = 4;
    config.height = 1;
    EXPECT_DEATH(
        {
            QueueBypassApp app;
            Machine machine(config, 64, 256);
            machine.run(app);
        },
        "conservation: tile 0 holds 1 IQ");
}

TEST(OwnershipDeathTest, OutOfRangeWriteUnderClaimPanics)
{
    useThreadsafeDeathTests();
    int domain = 0;
    EXPECT_DEATH(
        {
            ownership::ScopedShardClaim claim(&domain, "test", 0, 4);
            ownership::checkWrite(&domain, 7, "oob-write");
        },
        "ownership");
}

TEST(OwnershipDeathTest, UnclaimedWriteDuringForeignPhasePanics)
{
    useThreadsafeDeathTests();
    int domain = 0;
    EXPECT_DEATH(
        {
            ownership::ScopedShardClaim claim(&domain, "test", 0, 4);
            // A different thread with no claim writes the domain
            // while this thread's phase is live: must panic.
            std::thread intruder([&] {
                ownership::checkWrite(&domain, 1, "unclaimed-write");
            });
            intruder.join();
        },
        "ownership");
}

TEST(OwnershipChecks, SerialWritesNeedNoClaim)
{
    int domain = 0;
    EXPECT_FALSE(ownership::phaseActive(&domain));
    // No claim anywhere on the domain: writes are serial-section
    // writes and must pass silently.
    ownership::checkWrite(&domain, 123, "serial-write");
    {
        ownership::ScopedShardClaim claim(&domain, "test", 0, 8);
        EXPECT_TRUE(ownership::phaseActive(&domain));
        ownership::checkWrite(&domain, 3, "in-range");
    }
    EXPECT_FALSE(ownership::phaseActive(&domain));
}

TEST(OwnershipChecks, InnermostClaimWins)
{
    useThreadsafeDeathTests();
    int domain = 0;
    ownership::ScopedShardClaim outer(&domain, "outer", 0, 16);
    ownership::checkWrite(&domain, 12, "outer-range");
    {
        // Nested claims narrow: the innermost claim on the domain
        // governs, so a write legal under the outer claim dies once
        // a tighter inner claim is live.
        ownership::ScopedShardClaim inner(&domain, "inner", 4, 8);
        ownership::checkWrite(&domain, 5, "inner-range");
        EXPECT_DEATH(ownership::checkWrite(&domain, 12, "narrowed"),
                     "ownership");
    }
    // The outer claim governs again after the inner scope ends.
    ownership::checkWrite(&domain, 12, "outer-again");
    EXPECT_TRUE(ownership::phaseActive(&domain));
}

#else // !DALOREX_OWNERSHIP_CHECKS

TEST(OwnershipDeathTest, CompiledOut)
{
    static_assert(!ownership::enabled);
    GTEST_SKIP() << "ownership checker compiled out "
                    "(DALOREX_OWNERSHIP_CHECKS=0); violation tests "
                    "run in Debug/sanitizer configurations";
}

#endif // DALOREX_OWNERSHIP_CHECKS

} // namespace
} // namespace dalorex
