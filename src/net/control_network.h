/**
 * @file
 * The dedicated peer-to-peer control network (paper Fig. 6c).
 *
 * Composition: a CS broadcast stage, a Benes permutation core, and a
 * second CS stage on the output side.  PE control outputs, the
 * controller and the control-FIFO pop ports feed the input side; PE
 * control inputs, the controller and the FIFO push ports sit on the
 * output side (the paper's "scalable interface").
 *
 * The network is *statically configured*: the compiler computes one
 * conflict-free configuration per kernel mapping (corridor and
 * permutation assignment), after which control words flow with a
 * fixed connection and no arbitration — each path contributes one
 * element of throughput per cycle at one cycle of latency (Fig. 4d).
 */

#ifndef MARIONETTE_NET_CONTROL_NETWORK_H
#define MARIONETTE_NET_CONTROL_NETWORK_H

#include <optional>
#include <vector>

#include "net/benes.h"
#include "net/cs_network.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/** One static multicast connection through the control network. */
struct ControlRoute
{
    /** Input port (see portForPeOutput()/extra-port helpers). */
    int srcPort = -1;
    /** Output ports reached by this source, in any order. */
    std::vector<int> destPorts;
};

/** One delivered control word. */
struct ControlDelivery
{
    int destPort = -1;
    Word value = 0;
};

/**
 * Cycle-level CS-Benes control network.
 *
 * Port map (both directions):
 *   [0, numPes)                      PE control ports.
 *   [numPes, numPes + numExtra)      controller / FIFO ports.
 */
class ControlNetwork
{
  public:
    /**
     * @param num_pes   PE ports per side.
     * @param num_extra controller + FIFO ports per side.
     */
    ControlNetwork(int num_pes, int num_extra);

    int numPes() const { return numPes_; }
    int numPorts() const { return numPes_ + numExtra_; }

    /** Internal datapath width (the "64" of the 64x64 Benes). */
    int width() const { return width_; }

    /** One-way transfer latency in cycles (paper: 1). */
    Cycles latency() const { return 1; }

    /**
     * Install a static configuration.  Destination sets must be
     * disjoint across routes (each output port listens to at most
     * one source).
     *
     * @return false when the requested connection set exceeds the
     *         network's corridor capacity; the previous configuration
     *         is left untouched in that case.
     */
    bool configure(const std::vector<ControlRoute> &routes);

    /** True once a configuration is installed. */
    bool configured() const { return configured_; }

    /**
     * Send one word from each listed source port through the fabric
     * (values actually traverse the switched CS-Benes datapath).
     *
     * @param sends (srcPort, value) pairs; every srcPort must own a
     *              configured route.
     * @return deliveries at every destination port of the sending
     *         routes.
     */
    std::vector<ControlDelivery>
    transfer(const std::vector<std::pair<int, Word>> &sends);

    /** Destination ports of the configured route from @p src_port,
     *  or an empty list when none is configured. */
    std::vector<int> destinationsOf(int src_port) const;

    /** Benes 2x2 switch count (area model input). */
    int benesSwitches() const { return benes_.totalSwitches(); }

    /** CS 2:1 mux count across both CS stages (area model input). */
    int csMuxes() const
    { return csIn_.totalMuxes() + csOut_.totalMuxes(); }

    /** Switching-stage count end to end (delay model input). */
    int totalStages() const
    {
        return csIn_.numStages() + benes_.numStages() +
               csOut_.numStages();
    }

    const StatGroup &stats() const { return stats_; }

    /** Zero every statistic (persistent-machine request reset). */
    void resetStats() { stats_.resetAll(); }

    /** Snapshot the network's statistics (machine snapshots: the
     *  switch state is rebuilt by re-running configure(), which
     *  bumps the configuration counter — restoring the captured
     *  stats afterwards undoes the double count). */
    StatGroupState saveStats() const
    {
        return stats_.captureState();
    }

    void restoreStats(const StatGroupState &state)
    {
        stats_.restoreState(state);
    }

  private:
    int inPosition(int port) const { return port * strideIn_; }
    int outPosition(int port) const { return port * strideOut_; }

    int numPes_;
    int numExtra_;
    int width_;
    int strideIn_;
    int strideOut_;

    CsNetwork csIn_;
    BenesNetwork benes_;
    CsNetwork csOut_;

    bool configured_ = false;
    CsRouting csInRouting_;
    BenesRouting benesRouting_;
    CsRouting csOutRouting_;
    std::vector<ControlRoute> routes_;
    /** Route index per source port; -1 when unconfigured. */
    std::vector<int> routeOfPort_;

    StatGroup stats_;
    Stat &statConfigurations_;
    Stat &statTransfers_;
    Stat &statWordsDelivered_;
};

} // namespace marionette

#endif // MARIONETTE_NET_CONTROL_NETWORK_H
