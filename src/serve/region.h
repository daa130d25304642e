/**
 * @file
 * Spatial multi-tenancy: rectangular tile regions over MeshGeometry.
 *
 * A TileRegion is a rectangle of PEs carved out of one fabric.  A
 * kernel compiled for a region sees the fabric's MachineConfig with
 * every tile *outside* the rectangle masked as a dead PE — the
 * fault-aware backend's existing "taken" machinery then confines
 * placement to the rectangle, and dimension-ordered XY routing keeps
 * every route between two inside PEs inside the rectangle.  Regions
 * are therefore spatially isolated: co-tenant kernels in disjoint
 * rectangles never share a PE, a mesh link or (given disjoint
 * CompilerOptions::memoryBase windows) a scratchpad word, so a
 * co-tenant run is bit-exact against the same kernel run solo.
 *
 * Two execution styles build on this:
 *
 *  - *Factorized* (the serving hot path, serve/server.h): each
 *    region is a lane with its own persistent machine built from
 *    regionConfig().  Lanes of one fabric overlap in simulated
 *    time — the fabric's occupancy is the max over its lanes.
 *
 *  - *Composite* (the isolation evidence): mergeKernels() splices
 *    several region-compiled programs into one Program that runs on
 *    a single machine, all tenants ticking in the same simulation.
 *    Per-tenant output streams and memory windows must match the
 *    solo runs byte for byte (tests/serving_test.cc).
 */

#ifndef MARIONETTE_SERVE_REGION_H
#define MARIONETTE_SERVE_REGION_H

#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "sim/config.h"

namespace marionette
{

class MarionetteMachine;

namespace serve
{

/** A rectangle of PEs on one fabric. */
struct TileRegion
{
    int row0 = 0;
    int col0 = 0;
    int rows = 0;
    int cols = 0;

    int numPes() const { return rows * cols; }

    bool
    contains(int row, int col) const
    {
        return row >= row0 && row < row0 + rows && col >= col0 &&
               col < col0 + cols;
    }

    bool containsPe(const MachineConfig &fabric, PeId pe) const;

    /** "3x5@(0,5)" for logs and diagnostics. */
    std::string describe() const;
};

/**
 * Carve @p fabric into @p count disjoint rectangular regions laid
 * out as a grid (1 = the whole fabric, 2 = a column split, 4 = the
 * four quadrants, and generally the most-square factor grid).
 * Remainder rows/columns go to the last row/column of regions.
 * Region order is row-major and deterministic.
 */
std::vector<TileRegion> carveRegions(const MachineConfig &fabric,
                                     int count);

/**
 * The fabric's config with every PE outside @p region masked dead.
 * Fabric faults *inside* the region are kept (the placer must avoid
 * them); fabric faults outside it are dropped — they are already
 * covered by the mask, so a fault in a foreign region leaves this
 * region's config (and hence its configHash, program cache entries
 * and snapshots) untouched.  Dead links are kept only when both
 * endpoints are inside; transients only when their PE is inside.
 */
MachineConfig regionConfig(const MachineConfig &fabric,
                           const TileRegion &region);

/** Nonlinear-capable PEs (the last MachineConfig::nonlinearPes ids)
 *  that fall inside @p region and are not dead in @p fabric. */
int nonlinearPesInRegion(const MachineConfig &fabric,
                         const TileRegion &region);

/** True when @p workload's CDFG contains a nonlinear opcode — such
 *  a kernel can only serve from a region with at least one live
 *  nonlinear-capable PE. */
bool workloadNeedsNonlinear(const Workload &workload);

/** Scratchpad window base (words) of region @p index when the
 *  fabric's scratchpad is split evenly across @p count regions. */
Word regionMemoryBase(const MachineConfig &fabric, int index,
                      int count);

/** Scratchpad window size (words) of each region under the same
 *  even split — pass as CompilerOptions::memoryWords so the emit
 *  pass rejects kernels whose footprint cannot fit the window. */
Word regionMemoryWords(const MachineConfig &fabric, int count);

/** True when every PE the program touches is inside @p region. */
bool programInsideRegion(const Program &program,
                         const MachineConfig &fabric,
                         const TileRegion &region);

/**
 * Several region-compiled kernels spliced into one Program for one
 * machine (the composite execution style).  Tenant PE sets must be
 * disjoint; control-FIFO ids and output-FIFO indices are offset per
 * tenant so the streams never collide.
 */
struct CompositeKernel
{
    /** One co-tenant's slice of the merged program. */
    struct Slice
    {
        std::shared_ptr<const CompiledKernel> kernel;
        /** First output FIFO index of this tenant. */
        int outputBase = 0;
        /** First control FIFO id of this tenant. */
        int ctrlFifoBase = 0;
    };

    Program program;
    std::vector<BootInjection> boots;
    Cycle cycleBudget = 0;
    std::vector<Slice> slices;
    /** Empty when the merge succeeded; otherwise why not (PE
     *  collision, control-FIFO capacity, ...). */
    std::string error;

    bool ok() const { return error.empty(); }

    /** load() the merged program, fill every tenant's scratchpad
     *  window, seed every tenant's boot injections. */
    void prepare(MarionetteMachine &machine) const;

    /** Bit-exact validation of tenant @p slice against its own
     *  golden streams and memory window; empty on success. */
    std::string validateSlice(const MarionetteMachine &machine,
                              const RunResult &run,
                              std::size_t slice) const;
};

/** Merge @p kernels (each compiled against a disjoint region of
 *  @p fabric with a disjoint memoryBase window) into one composite
 *  program.  Capacity failures are reported in the result's error,
 *  never fatal. */
CompositeKernel
mergeKernels(const std::vector<std::shared_ptr<const CompiledKernel>>
                 &kernels,
             const MachineConfig &fabric);

} // namespace serve
} // namespace marionette

#endif // MARIONETTE_SERVE_REGION_H
