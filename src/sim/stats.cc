#include "sim/stats.h"

#include <sstream>

namespace marionette
{

Stat &
StatGroup::stat(const std::string &name)
{
    return stats_[name];
}

std::uint64_t
StatGroup::value(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? 0 : it->second.value();
}

void
StatGroup::resetAll()
{
    // Back to the pristine untouched state, not just zero: render()
    // omits untouched stats, so a reset machine must dump the same
    // bytes as a freshly constructed one (persistent serving lanes
    // rely on this for bit-exact per-request stat dumps).
    for (auto &kv : stats_)
        kv.second.restore(0, false);
}

void
StatGroup::render(std::vector<std::string> &out) const
{
    for (const auto &kv : stats_) {
        if (!kv.second.touched())
            continue;
        std::ostringstream line;
        line << prefix_ << '.' << kv.first << ' ' << kv.second.value();
        out.push_back(line.str());
    }
}

StatGroupState
StatGroup::captureState() const
{
    StatGroupState state;
    state.stats.reserve(stats_.size());
    for (const auto &kv : stats_)
        state.stats.emplace_back(kv.first, kv.second.value(),
                                 kv.second.touched());
    return state;
}

void
StatGroup::restoreState(const StatGroupState &state)
{
    for (auto &kv : stats_)
        kv.second.restore(0, false);
    for (const auto &[name, value, touched] : state.stats)
        stats_[name].restore(value, touched);
}

std::string
renderStats(const std::vector<const StatGroup *> &groups)
{
    std::vector<std::string> lines;
    for (const StatGroup *g : groups) {
        if (g != nullptr)
            g->render(lines);
    }
    std::ostringstream out;
    for (const std::string &line : lines)
        out << line << '\n';
    return out.str();
}

} // namespace marionette
