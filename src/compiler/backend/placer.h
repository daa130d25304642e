/**
 * @file
 * The two placers behind the place pass (internal header).
 *
 * passPlace (backend/placement.cc) builds the netlists, checks
 * capacity and then hands the phases to one of:
 *
 *  - placeSnake (placement.cc): the legacy boustrophedon walk, kept
 *    bit-for-bit as the mapped-cycles ablation baseline;
 *  - placeCost (cost_placer.cc): the timing-driven placer, which
 *    also falls back to the snake layout when that scores better.
 */

#ifndef MARIONETTE_COMPILER_BACKEND_PLACER_H
#define MARIONETTE_COMPILER_BACKEND_PLACER_H

#include <cstdint>
#include <vector>

#include "compiler/pipeline.h"

namespace marionette
{

/** Snake placement of every phase of @p cc into @p map (phase
 *  generators, live nodes, then the drain generators). */
void placeSnake(Compilation &cc, Mapping &map, int nonlinear_total);

/** What the cost placer reports in the place note. */
struct CostPlacement
{
    /** Exact per-phase recurrence II of the kept placement. */
    std::vector<Cycles> phaseIIs;
    std::uint64_t wirelength = 0;
    int improvingMoves = 0;
    /** Wirelength weight of a recurrence edge (Fig. 8 plan). */
    std::uint64_t recurrenceWeight = 0;
    /** The snake layout scored better and was kept. */
    bool keptSnake = false;
};

/** Cost-driven placement of @p cc into @p map, whose per-phase
 *  netlists (PlacedPhase::edges) must already be built. */
CostPlacement placeCost(Compilation &cc, Mapping &map,
                        int nonlinear_total);

} // namespace marionette

#endif // MARIONETTE_COMPILER_BACKEND_PLACER_H
