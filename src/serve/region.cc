#include "serve/region.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "arch/machine.h"
#include "ir/cdfg.h"
#include "sim/logging.h"

namespace marionette
{
namespace serve
{

bool
TileRegion::containsPe(const MachineConfig &fabric, PeId pe) const
{
    const int row = static_cast<int>(pe) / fabric.cols;
    const int col = static_cast<int>(pe) % fabric.cols;
    return contains(row, col);
}

std::string
TileRegion::describe() const
{
    std::ostringstream out;
    out << rows << "x" << cols << "@(" << row0 << "," << col0
        << ")";
    return out.str();
}

std::vector<TileRegion>
carveRegions(const MachineConfig &fabric, int count)
{
    MARIONETTE_ASSERT(count >= 1, "carveRegions: count < 1");
    // Most-square grid: the largest divisor of count that is at
    // most sqrt(count) gives the row count.
    int grid_rows = 1;
    for (int d = 1; d * d <= count; ++d)
        if (count % d == 0)
            grid_rows = d;
    const int grid_cols = count / grid_rows;
    // Prefer splitting the longer fabric axis more finely.
    int split_rows = grid_rows, split_cols = grid_cols;
    if (fabric.rows > fabric.cols)
        std::swap(split_rows, split_cols);
    MARIONETTE_ASSERT(split_rows <= fabric.rows &&
                          split_cols <= fabric.cols,
                      "carveRegions: more regions than tiles");

    std::vector<TileRegion> regions;
    const int base_h = fabric.rows / split_rows;
    const int base_w = fabric.cols / split_cols;
    for (int gr = 0; gr < split_rows; ++gr) {
        for (int gc = 0; gc < split_cols; ++gc) {
            TileRegion region;
            region.row0 = gr * base_h;
            region.col0 = gc * base_w;
            region.rows = gr == split_rows - 1
                              ? fabric.rows - region.row0
                              : base_h;
            region.cols = gc == split_cols - 1
                              ? fabric.cols - region.col0
                              : base_w;
            regions.push_back(region);
        }
    }
    return regions;
}

MachineConfig
regionConfig(const MachineConfig &fabric, const TileRegion &region)
{
    MachineConfig config = fabric;

    std::set<PeId> dead;
    for (int row = 0; row < fabric.rows; ++row)
        for (int col = 0; col < fabric.cols; ++col)
            if (!region.contains(row, col))
                dead.insert(
                    static_cast<PeId>(row * fabric.cols + col));
    // Real faults inside the rectangle stay; faults outside it are
    // subsumed by the mask (so a foreign-region fault cannot perturb
    // this region's configHash).
    for (PeId pe : fabric.faults.deadPes)
        if (region.containsPe(fabric, pe))
            dead.insert(pe);
    config.faults.deadPes.assign(dead.begin(), dead.end());

    config.faults.deadLinks.clear();
    for (const DeadLink &link : fabric.faults.deadLinks)
        if (region.containsPe(fabric, link.a) &&
            region.containsPe(fabric, link.b))
            config.faults.deadLinks.push_back(link);

    config.faults.transients.clear();
    for (const TransientFault &fault : fabric.faults.transients)
        if (region.containsPe(fabric, fault.pe))
            config.faults.transients.push_back(fault);

    return config;
}

int
nonlinearPesInRegion(const MachineConfig &fabric,
                     const TileRegion &region)
{
    const PeId first = static_cast<PeId>(fabric.numPes() -
                                         fabric.nonlinearPes);
    int count = 0;
    for (PeId pe = first; pe < fabric.numPes(); ++pe)
        if (region.containsPe(fabric, pe) &&
            !fabric.faults.peDead(pe))
            ++count;
    return count;
}

bool
workloadNeedsNonlinear(const Workload &workload)
{
    const Cdfg cdfg = workload.buildCdfg();
    for (const BasicBlock &block : cdfg.blocks())
        for (const DfgNode &node : block.dfg.nodes())
            if (isNonlinearOp(node.op))
                return true;
    return false;
}

Word
regionMemoryBase(const MachineConfig &fabric, int index, int count)
{
    return regionMemoryWords(fabric, count) *
           static_cast<Word>(index);
}

Word
regionMemoryWords(const MachineConfig &fabric, int count)
{
    const Word spad_words = static_cast<Word>(
        fabric.scratchpadBytes / static_cast<int>(sizeof(Word)));
    return spad_words / static_cast<Word>(count);
}

bool
programInsideRegion(const Program &program,
                    const MachineConfig &fabric,
                    const TileRegion &region)
{
    for (const PeProgram &p : program.pes)
        if (!region.containsPe(fabric, p.pe))
            return false;
    return true;
}

// ------------------------------------------------------------------
// Composite merge
// ------------------------------------------------------------------

namespace
{

/** Static scratchpad footprint [base, top) of a compiled kernel:
 *  its image plus every golden memory region. */
std::pair<Word, Word>
memoryFootprint(const CompiledKernel &kernel)
{
    Word top = kernel.memoryImageBase +
               static_cast<Word>(kernel.memoryImage.size());
    for (const MemoryRegionCheck &check : kernel.memoryChecks)
        top = std::max<Word>(
            top, check.base +
                     static_cast<Word>(check.expect.size()));
    return {kernel.memoryImageBase, top};
}

/** Control FIFOs a program binds: max referenced id + 1. */
int
ctrlFifosUsed(const Program &program)
{
    int max_id = -1;
    for (const PeProgram &p : program.pes) {
        for (const Instruction &in : p.instrs) {
            max_id = std::max(max_id, in.startFifo);
            max_id = std::max(max_id, in.boundFifo);
            max_id = std::max(max_id, in.pushFifo);
        }
    }
    return max_id + 1;
}

} // namespace

CompositeKernel
mergeKernels(
    const std::vector<std::shared_ptr<const CompiledKernel>>
        &kernels,
    const MachineConfig &fabric)
{
    CompositeKernel out;
    out.program.name = "composite";
    out.program.numAddrs = 0;
    out.program.numOutputs = 0;

    std::set<PeId> used_pes;
    int next_output = 0;
    int next_fifo = 0;

    for (const auto &kernel : kernels) {
        if (!kernel) {
            out.error = "composite: null kernel";
            return out;
        }
        CompositeKernel::Slice slice;
        slice.kernel = kernel;
        slice.outputBase = next_output;
        slice.ctrlFifoBase = next_fifo;

        const Program &program = kernel->program;
        const int fifos = ctrlFifosUsed(program);
        if (next_fifo + fifos > fabric.controlFifoCount) {
            std::ostringstream why;
            why << "composite: control FIFO capacity exceeded ("
                << next_fifo + fifos << " > "
                << fabric.controlFifoCount << ") adding '"
                << kernel->workload << "'";
            out.error = why.str();
            return out;
        }

        // Disjoint scratchpad windows: the emit pass enforces the
        // caller-declared window, this re-checks the merged set so
        // a mis-sized window cannot silently corrupt a neighbour.
        const auto [mem_lo, mem_hi] = memoryFootprint(*kernel);
        for (const CompositeKernel::Slice &other : out.slices) {
            const auto [o_lo, o_hi] =
                memoryFootprint(*other.kernel);
            if (mem_lo < o_hi && o_lo < mem_hi) {
                std::ostringstream why;
                why << "composite: scratchpad footprints overlap "
                       "('"
                    << kernel->workload << "' [" << mem_lo << ","
                    << mem_hi << ") vs '"
                    << other.kernel->workload << "' [" << o_lo
                    << "," << o_hi << "))";
                out.error = why.str();
                return out;
            }
        }

        out.program.name += ":" + kernel->workload;
        for (const PeProgram &p : program.pes) {
            if (!used_pes.insert(p.pe).second) {
                std::ostringstream why;
                why << "composite: PE " << p.pe
                    << " claimed twice (regions not disjoint?)";
                out.error = why.str();
                return out;
            }
            PeProgram copy = p;
            for (Instruction &in : copy.instrs) {
                if (in.startFifo >= 0)
                    in.startFifo += slice.ctrlFifoBase;
                if (in.boundFifo >= 0)
                    in.boundFifo += slice.ctrlFifoBase;
                if (in.pushFifo >= 0)
                    in.pushFifo += slice.ctrlFifoBase;
                for (DestSel &dest : in.dests)
                    if (dest.kind == DestSel::Kind::OutputFifo)
                        dest.channel = static_cast<std::int8_t>(
                            dest.channel + slice.outputBase);
            }
            out.program.pes.push_back(std::move(copy));
        }
        out.program.numAddrs =
            std::max(out.program.numAddrs, program.numAddrs);
        out.program.numOutputs += program.numOutputs;
        for (const BootInjection &boot : kernel->boots)
            out.boots.push_back(boot);
        out.cycleBudget += kernel->cycleBudget;

        next_output += program.numOutputs;
        next_fifo += fifos;
        out.slices.push_back(std::move(slice));
    }
    return out;
}

void
CompositeKernel::prepare(MarionetteMachine &machine) const
{
    machine.load(program);
    for (const Slice &slice : slices)
        if (!slice.kernel->memoryImage.empty())
            machine.scratchpad().load(slice.kernel->memoryImageBase,
                                      slice.kernel->memoryImage);
    for (const BootInjection &boot : boots)
        machine.injectData(boot.pe, boot.channel, boot.value);
}

std::string
CompositeKernel::validateSlice(const MarionetteMachine &machine,
                               const RunResult &run,
                               std::size_t slice_index) const
{
    const Slice &slice = slices.at(slice_index);
    const CompiledKernel &kernel = *slice.kernel;
    std::ostringstream out;
    if (!run.finished) {
        out << program.name << ": machine did not quiesce within "
            << cycleBudget << " cycles";
        return out.str();
    }
    for (std::size_t k = 0; k < kernel.expectedOutputs.size();
         ++k) {
        const std::size_t fifo =
            static_cast<std::size_t>(slice.outputBase) + k;
        if (fifo >= run.outputs.size()) {
            out << kernel.workload << ": output FIFO " << fifo
                << " missing";
            return out.str();
        }
        const auto &got = run.outputs[fifo];
        const auto &want = kernel.expectedOutputs[k];
        if (got != want) {
            out << kernel.workload << ": output FIFO " << fifo
                << " diverges from the solo golden stream";
            return out.str();
        }
    }
    for (const MemoryRegionCheck &check : kernel.memoryChecks) {
        std::vector<Word> got = machine.scratchpad().dump(
            check.base, static_cast<int>(check.expect.size()));
        if (got != check.expect) {
            out << kernel.workload << ": memory region '"
                << check.label << "' diverges from the solo run";
            return out.str();
        }
    }
    return {};
}

} // namespace serve
} // namespace marionette
