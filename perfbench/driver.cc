/**
 * @file
 * perfbench driver: runs one benchmark workload against the library
 * and writes one raw record per operation as JSON lines.
 *
 * perfbench/run.py generates the inputs from the seed, builds this
 * binary, runs it, checks every record and derives the metrics; this
 * program only executes what the inputs file lists and times each
 * call into the library's public API from the outside:
 *
 *   Compiler::compile, CompiledKernel::prepare / validate,
 *   MarionetteMachine::run / fastForwardStats / congestion,
 *   serve::ServeCore::trySubmit / submit.
 *
 * With --trace 1 it also keeps spans (name, start, end, parent, id)
 * in memory around those calls and writes them out at the end.
 *
 * usage:
 *   perfbench_driver --workload compile_cold|sim_suite|serve_zipf
 *                    --inputs PATH --seconds S --trace 0|1 --out PATH
 *   perfbench_driver --selftest
 *   perfbench_driver --fingerprint WORD...
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "isa/encoding.h"
#include "serve/server.h"
#include "workloads/workload.h"

using namespace marionette;

namespace
{

using Clock = std::chrono::steady_clock;

/** The 10x10 evaluation fabric every workload runs on. */
MachineConfig
primaryFabric()
{
    MachineConfig big;
    big.rows = 10;
    big.cols = 10;
    big.scratchpadBytes = 512 * 1024;
    big.instrMemBytes = 64 * 1024;
    return big;
}

/** Lanes (single-region fabrics) of the serving workload. */
constexpr int serveLanes = 3;
/** Requests the closed-loop generator keeps in flight. */
constexpr int closedInFlight = 3;
/** Generator poll period: bounds how late a ready future is seen. */
constexpr auto pollPeriod = std::chrono::microseconds(100);

/** FNV-1a 64 over the little-endian bytes of @p words. */
std::uint64_t
fingerprint(const std::vector<std::uint32_t> &words)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint32_t word : words)
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (unsigned char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

/** One JSON-lines record. */
class Record
{
  public:
    explicit Record(const char *type) { str("t", type); }

    Record &
    str(const char *k, const std::string &v)
    {
        key(k);
        text_ += quote(v);
        return *this;
    }

    Record &
    num(const char *k, double v)
    {
        key(k);
        if (!std::isfinite(v)) {
            text_ += "null";
            return *this;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        text_ += buf;
        return *this;
    }

    Record &
    u64(const char *k, std::uint64_t v)
    {
        key(k);
        text_ += std::to_string(v);
        return *this;
    }

    Record &
    i64(const char *k, std::int64_t v)
    {
        key(k);
        text_ += std::to_string(v);
        return *this;
    }

    Record &
    flag(const char *k, bool v)
    {
        key(k);
        text_ += v ? "true" : "false";
        return *this;
    }

    /** Pre-rendered JSON value. */
    Record &
    raw(const char *k, const std::string &json)
    {
        key(k);
        text_ += json;
        return *this;
    }

    std::string done() const { return text_ + "}"; }

  private:
    void
    key(const char *k)
    {
        if (text_.size() > 1)
            text_ += ",";
        text_ += quote(k) + ":";
    }

    std::string text_ = "{";
};

/**
 * Records and spans, kept in memory and written to the output file
 * when the run ends.  Spans are recorded only in a traced run, and
 * only while active (a traced run alternates traced and untraced
 * operations to measure the tracing overhead in one process).
 */
class Sink
{
  public:
    explicit Sink(bool tracing) : tracing_(tracing), active_(tracing) {}

    bool tracing() const { return tracing_; }
    bool active() const { return active_; }
    void setActive(bool on) { active_ = tracing_ && on; }

    /** Milliseconds since the driver started. */
    double
    at(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::milli>(t - origin_)
            .count();
    }

    void emit(const Record &record) { lines_.push_back(record.done()); }

    /** Add a span; a no-op returning -1 unless active. */
    long
    span(const std::string &name, const std::string &id, double start,
         double end, long parent)
    {
        if (!active_)
            return -1;
        spans_.push_back(Span{name, id, start, end, parent});
        return static_cast<long>(spans_.size()) - 1;
    }

    long
    span(const std::string &name, const std::string &id,
         Clock::time_point start, Clock::time_point end, long parent)
    {
        return span(name, id, at(start), at(end), parent);
    }

    /** Set the end of a span opened with end == start. */
    void
    close(long index, Clock::time_point end)
    {
        if (index >= 0)
            spans_[static_cast<std::size_t>(index)].end = at(end);
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const std::string &line : lines_)
            out << line << "\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << Record("span")
                       .u64("i", i)
                       .str("name", s.name)
                       .str("id", s.id)
                       .num("s", s.start)
                       .num("e", s.end)
                       .i64("p", s.parent)
                       .done()
                << "\n";
        }
        out.flush();
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::string id;
        double start = 0;
        double end = 0;
        long parent = -1;
    };

    const bool tracing_;
    bool active_;
    const Clock::time_point origin_ = Clock::now();
    std::vector<std::string> lines_;
    std::vector<Span> spans_;
};

/** The inputs file run.py generated: one keyword per line. */
struct Inputs
{
    int setups = 1;
    Cycle warmupCycles = 0;
    std::vector<std::vector<std::string>> orders;
    std::vector<std::vector<std::string>> serialOrders;

    struct Request
    {
        int round = 0;    // open loop only
        double dueMs = 0; // open loop only, from the round's start
        std::string tenant;
        std::string kernel;
    };
    std::vector<Request> open;
    std::vector<Request> closed;
    /** Rounds of open, closed and serial phases (serve_zipf). */
    int rounds = 1;
    /** Per round. */
    double closedSeconds = 0;
    double serialSeconds = 0;
};

bool
readInputs(const std::string &path, Inputs &in, std::string &error)
{
    std::ifstream file(path);
    if (!file) {
        error = "cannot read inputs '" + path + "'";
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(file, line)) {
        ++lineno;
        std::istringstream fields(line);
        std::string keyword;
        if (!(fields >> keyword))
            continue;
        bool ok = true;
        if (keyword == "setups") {
            ok = static_cast<bool>(fields >> in.setups) &&
                 in.setups >= 1;
        } else if (keyword == "warmup_cycles") {
            ok = static_cast<bool>(fields >> in.warmupCycles);
        } else if (keyword == "order" || keyword == "serial") {
            std::vector<std::string> order;
            for (std::string k; fields >> k;)
                order.push_back(k);
            ok = !order.empty();
            (keyword == "order" ? in.orders : in.serialOrders)
                .push_back(std::move(order));
        } else if (keyword == "open") {
            Inputs::Request r;
            ok = static_cast<bool>(fields >> r.round >> r.dueMs >>
                                   r.tenant >> r.kernel);
            in.open.push_back(std::move(r));
        } else if (keyword == "closed") {
            Inputs::Request r;
            ok = static_cast<bool>(fields >> r.tenant >> r.kernel);
            in.closed.push_back(std::move(r));
        } else if (keyword == "rounds") {
            ok = static_cast<bool>(fields >> in.rounds) && in.rounds >= 1;
        } else if (keyword == "closed_seconds") {
            ok = static_cast<bool>(fields >> in.closedSeconds);
        } else if (keyword == "serial_seconds") {
            ok = static_cast<bool>(fields >> in.serialSeconds);
        } else {
            ok = false;
        }
        if (!ok) {
            error = path + ":" + std::to_string(lineno) +
                    ": bad line '" + line + "'";
            return false;
        }
    }
    return true;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * Parse the PassManager's "timings" note ("analyze 12us, place
 * 300us, ...") into (pass, microseconds) pairs.  False when the note
 * is missing or malformed.
 */
bool
passTimings(const CompileReport &report,
            std::vector<std::pair<std::string, std::uint64_t>> &out)
{
    const CompilerPassNote *note = nullptr;
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == "timings")
            note = &n;
    if (!note)
        return false;
    std::istringstream items(note->message);
    for (std::string item; std::getline(items, item, ',');) {
        std::istringstream fields(item);
        std::string name;
        std::string micros;
        if (!(fields >> name >> micros) || micros.size() < 3 ||
            micros.compare(micros.size() - 2, 2, "us") != 0)
            return false;
        char *end = nullptr;
        const unsigned long long us =
            std::strtoull(micros.c_str(), &end, 10);
        if (end != micros.c_str() + micros.size() - 2)
            return false;
        out.emplace_back(name, us);
    }
    return !out.empty();
}

/** One timed Compiler::compile, recorded with its quality counts. */
std::shared_ptr<const CompiledKernel>
timedCompile(Sink &sink, const Compiler &compiler, const Workload &w,
             const std::string &phase, int pass, long parent)
{
    const Clock::time_point t0 = Clock::now();
    CompileResult result = compiler.compile(w);
    const Clock::time_point t1 = Clock::now();

    Record rec("compile");
    rec.str("phase", phase)
        .i64("pass", pass)
        .str("k", w.name())
        .num("ms", msBetween(t0, t1))
        .flag("ok", result.ok());
    std::vector<std::pair<std::string, std::uint64_t>> timings;
    const bool timed = passTimings(result.report, timings);
    std::string timing_json = "{";
    for (const auto &[name, us] : timings)
        timing_json += (timing_json.size() > 1 ? "," : "") +
                       quote(name) + ":" + std::to_string(us);
    rec.raw("pass_us", timing_json + "}").flag("timed", timed);
    if (result.ok()) {
        const Program &program = result.kernel->program;
        const std::vector<std::uint32_t> words = encodeProgram(program);
        std::uint64_t pes = 0;
        for (const PeProgram &pe : program.pes)
            pes += pe.instrs.empty() ? 0 : 1;
        rec.str("fp", hex64(fingerprint(words)))
            .u64("words", words.size())
            .u64("pes", pes)
            .num("sched", result.report.scheduledCycleEstimate);
    } else {
        rec.str("error", result.report.failedPass + ": " +
                             result.report.reason);
    }
    sink.emit(rec);

    const std::string id = w.name() + "#" + std::to_string(pass);
    const long span = sink.span("compile", id, t0, t1, parent);
    // Child spans laid end to end from the pass timers; what is left
    // of the compile span is work outside the timers (the analytic
    // model cross-check).
    double cursor = sink.at(t0);
    for (const auto &[name, us] : timings) {
        const double end = cursor + static_cast<double>(us) / 1000.0;
        sink.span("pass." + name, id, cursor, end, span);
        cursor = end;
    }
    return result.kernel;
}

void
emitRss(Sink &sink)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux.
    sink.emit(Record("rss").num(
        "mb", static_cast<double>(usage.ru_maxrss) / 1024.0));
}

void
emitMeta(Sink &sink, const std::string &workload, bool tracing)
{
    const MachineConfig fabric = primaryFabric();
    sink.emit(Record("meta")
                  .str("workload", workload)
                  .flag("traced", tracing)
                  .str("cxx", __VERSION__)
                  .str("build_type", PERFBENCH_BUILD_TYPE)
                  .u64("hw_threads", std::thread::hardware_concurrency())
                  .str("fabric",
                       std::to_string(fabric.rows) + "x" +
                           std::to_string(fabric.cols))
                  .u64("scratchpad_bytes", fabric.scratchpadBytes)
                  .u64("instr_mem_bytes", fabric.instrMemBytes)
                  .flag("fast_forward_default", fabric.fastForward));
}


/** Resolve the kernels of every order line, failing on unknowns. */
bool
resolveOrders(const char *workload,
              const std::vector<std::vector<std::string>> &orders,
              std::map<std::string, const Workload *> &out)
{
    if (orders.empty()) {
        std::fprintf(stderr, "%s: no kernel order in the inputs\n",
                     workload);
        return false;
    }
    for (const auto &order : orders)
        for (const std::string &name : order) {
            const Workload *w = findWorkload(name);
            if (!w) {
                std::fprintf(stderr, "%s: unknown kernel '%s'\n",
                             workload, name.c_str());
                return false;
            }
            out[name] = w;
        }
    return true;
}

// ------------------------------------------------------ compile_cold

int
compileCold(Sink &sink, const Inputs &in, double seconds)
{
    std::map<std::string, const Workload *> kernels;
    if (!resolveOrders("compile_cold", in.orders, kernels))
        return 2;

    // Set-up: a Compiler for the fabric plus one warm-up compile of
    // every kernel, which no metric but setup_s sees.
    std::unique_ptr<Compiler> compiler;
    for (int s = 0; s < in.setups; ++s) {
        const Clock::time_point t0 = Clock::now();
        const long span = sink.span("setup", std::to_string(s), t0, t0, -1);
        compiler = std::make_unique<Compiler>(primaryFabric(),
                                              CompilerOptions{});
        for (const std::string &name : in.orders.front())
            timedCompile(sink, *compiler, *kernels.at(name), "warmup", s,
                         span);
        sink.close(span, Clock::now());
        sink.emit(Record("setup").num("s", secondsSince(t0)));
    }

    // Timed passes; a traced run traces every other pass.
    const Clock::time_point start = Clock::now();
    for (int pass = 0;
         secondsSince(start) < seconds || (sink.tracing() && pass < 2);
         ++pass) {
        sink.setActive(pass % 2 == 0);
        const std::vector<std::string> &order =
            in.orders[static_cast<std::size_t>(pass) % in.orders.size()];
        const Clock::time_point t0 = Clock::now();
        const long span = sink.span("pass", std::to_string(pass), t0, t0, -1);
        for (const std::string &name : order)
            timedCompile(sink, *compiler, *kernels.at(name), "timed", pass,
                         span);
        sink.close(span, Clock::now());
        sink.emit(Record("pass")
                      .i64("pass", pass)
                      .flag("traced", sink.active())
                      .num("s", secondsSince(t0)));
    }
    sink.setActive(true);
    return 0;
}

// --------------------------------------------------------- sim_suite

/**
 * One operation of sim_suite: a fresh machine, prepare, run, validate.
 * Traced operations also read the fast-forward and congestion
 * counters.
 */
void
timedRun(Sink &sink, const CompiledKernel &kernel,
         const MachineConfig &config, const std::string &phase, int pass,
         long parent)
{
    const Clock::time_point t0 = Clock::now();
    MarionetteMachine machine(config);
    const Clock::time_point t1 = Clock::now();
    kernel.prepare(machine);
    const Clock::time_point t2 = Clock::now();
    const RunResult run = machine.run(kernel.cycleBudget);
    const Clock::time_point t3 = Clock::now();
    const std::string validation = kernel.validate(machine, run);
    const Clock::time_point t4 = Clock::now();

    Record rec("run");
    rec.str("phase", phase)
        .i64("pass", pass)
        .str("k", kernel.workload)
        .flag("traced", sink.active())
        .num("build_ms", msBetween(t0, t1))
        .num("prepare_ms", msBetween(t1, t2))
        .num("run_ms", msBetween(t2, t3))
        .num("validate_ms", msBetween(t3, t4))
        .flag("ok", run.ok())
        .str("error", run.errorDetail)
        .str("validation", validation)
        .u64("cycles", run.cycles)
        .u64("fires", run.totalFires)
        .num("util", run.peUtilization);

    Clock::time_point t5 = t4;
    if (sink.active()) {
        const FastForwardStats ff = machine.fastForwardStats();
        const CongestionReport net = machine.congestion();
        t5 = Clock::now();
        rec.u64("ff_probes", ff.probes)
            .u64("ff_declines", ff.declines)
            .u64("ff_engagements", ff.engagements)
            .u64("ff_cycles_skipped", ff.cyclesSkipped)
            .u64("net_packets", net.packets)
            .u64("net_hops", net.hopTraversals)
            .u64("net_max_link", net.maxLinkLoad)
            .num("net_mean_hops", net.meanHops)
            .u64("stall_operand", net.stallOperand)
            .u64("stall_credit", net.stallCredit)
            .u64("stall_mem", net.stallMem)
            .u64("stall_gate", net.stallGate);
    }
    sink.emit(rec);

    const std::string id = kernel.workload + "#" + std::to_string(pass);
    const long span = sink.span("op", id, t0, t5, parent);
    sink.span("machine", id, t0, t1, span);
    sink.span("prepare", id, t1, t2, span);
    sink.span("run", id, t2, t3, span);
    sink.span("validate", id, t3, t4, span);
    sink.span("counters", id, t4, t5, span);
}

int
simSuite(Sink &sink, const Inputs &in, double seconds)
{
    std::map<std::string, const Workload *> kernels;
    if (!resolveOrders("sim_suite", in.orders, kernels))
        return 2;

    const MachineConfig fabric = primaryFabric();
    MachineConfig ffOff = fabric;
    ffOff.fastForward = false;

    // Set-up: compile every kernel, then warm up by running each for
    // its first warmupCycles simulated cycles (unchecked, unrecorded).
    std::map<std::string, std::shared_ptr<const CompiledKernel>> programs;
    for (int s = 0; s < in.setups; ++s) {
        const Clock::time_point t0 = Clock::now();
        const long span = sink.span("setup", std::to_string(s), t0, t0, -1);
        const Compiler compiler(fabric, CompilerOptions{});
        programs.clear();
        for (const std::string &name : in.orders.front())
            programs[name] = timedCompile(sink, compiler,
                                          *kernels.at(name), "setup", s,
                                          span);
        for (const auto &[name, kernel] : programs) {
            if (!kernel)
                return 0; // the failed compile record fails the run
            const Clock::time_point w0 = Clock::now();
            MarionetteMachine machine(fabric);
            kernel->prepare(machine);
            machine.run(std::min(in.warmupCycles, kernel->cycleBudget));
            sink.span("warmup", name, w0, Clock::now(), span);
        }
        sink.close(span, Clock::now());
        sink.emit(Record("setup").num("s", secondsSince(t0)));
    }

    // Timed passes.  A traced run rotates through a traced pass, an
    // untraced one (tracing overhead) and a traced pass with
    // fast-forward off (the sim layer's net cost).
    const Clock::time_point start = Clock::now();
    for (int pass = 0;
         secondsSince(start) < seconds || (sink.tracing() && pass < 3);
         ++pass) {
        const int kind = sink.tracing() ? pass % 3 : 0;
        sink.setActive(kind != 1);
        const std::vector<std::string> &order =
            in.orders[static_cast<std::size_t>(pass) % in.orders.size()];
        const Clock::time_point t0 = Clock::now();
        const long span = sink.span(kind == 2 ? "ffoff_pass" : "pass",
                                    std::to_string(pass), t0, t0, -1);
        for (const std::string &name : order)
            timedRun(sink, *programs.at(name), kind == 2 ? ffOff : fabric,
                     kind == 2 ? "ffoff" : "timed", pass, span);
        sink.close(span, Clock::now());
        sink.emit(Record("pass")
                      .i64("pass", pass)
                      .flag("traced", sink.active())
                      .flag("ff", kind != 2)
                      .num("s", secondsSince(t0)));
    }
    sink.setActive(true);
    return 0;
}

// -------------------------------------------------------- serve_zipf

/** A submitted request the generator has not seen finish yet. */
struct InFlight
{
    std::size_t index = 0;
    const Inputs::Request *request = nullptr;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point submitted;
    bool traced = false;
    std::future<serve::ServeResponse> future;
};

serve::ServeRequest
makeRequest(const Inputs::Request &r)
{
    serve::ServeRequest request;
    request.tenant = r.tenant;
    request.workload = r.kernel;
    return request;
}

/** Record a finished request (and its spans when traced). */
void
recordResponse(Sink &sink, const std::string &phase, InFlight &f,
               Clock::time_point ready)
{
    const serve::ServeResponse response = f.future.get();
    sink.emit(Record("req")
                  .str("phase", phase)
                  .u64("i", f.index)
                  .str("k", f.request->kernel)
                  .str("tenant", f.request->tenant)
                  .flag("traced", f.traced)
                  .flag("rejected", false)
                  .num("due", sink.at(f.due))
                  .num("sent", sink.at(f.sent))
                  .num("ready", sink.at(ready))
                  .u64("queue_us", response.queueMicros)
                  .u64("service_us", response.serviceMicros)
                  .flag("served", response.served)
                  .str("error", response.error)
                  .str("validation", response.validation)
                  .flag("run_ok", response.run.ok())
                  .u64("cycles", response.run.cycles)
                  .flag("warm", response.warmStart)
                  .i64("lane", response.lane));
    if (!f.traced)
        return;
    sink.setActive(true);
    // Queue and service children are placed back from the observed
    // ready time using the durations the core measured.
    const std::string id = phase + "#" + std::to_string(f.index);
    const double end = sink.at(ready);
    const double service = static_cast<double>(response.serviceMicros) /
                           1000.0;
    const double queue = static_cast<double>(response.queueMicros) /
                         1000.0;
    const long span = sink.span("request", id, sink.at(f.due), end, -1);
    sink.span("submit", id, f.sent, f.submitted, span);
    sink.span("queue", id, end - service - queue, end - service, span);
    sink.span("service", id, end - service, end, span);
}

void
recordRejected(Sink &sink, const std::string &phase, const InFlight &f)
{
    sink.emit(Record("req")
                  .str("phase", phase)
                  .u64("i", f.index)
                  .str("k", f.request->kernel)
                  .str("tenant", f.request->tenant)
                  .flag("traced", f.traced)
                  .flag("rejected", true)
                  .num("due", sink.at(f.due))
                  .num("sent", sink.at(f.sent))
                  .flag("served", false)
                  .str("error", "rejected: queue full"));
}

/** Record every outstanding request whose future is ready. */
void
collectReady(Sink &sink, const std::string &phase,
             std::vector<InFlight> &outstanding)
{
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < outstanding.size();) {
        if (outstanding[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            recordResponse(sink, phase, outstanding[i], now);
            outstanding[i] = std::move(outstanding.back());
            outstanding.pop_back();
        } else {
            ++i;
        }
    }
}

/** Non-blocking submit from the generator thread. */
void
submitOne(Sink &sink, serve::ServeCore &core, const std::string &phase,
          InFlight &&f, std::vector<InFlight> &outstanding)
{
    f.sent = Clock::now();
    const bool accepted =
        core.trySubmit(makeRequest(*f.request), f.future);
    f.submitted = Clock::now();
    if (accepted)
        outstanding.push_back(std::move(f));
    else
        recordRejected(sink, phase, f);
}

void
emitCoreCounters(Sink &sink, const char *when,
                 const serve::ServeCore &core)
{
    const SnapshotCache::Counters snaps = core.snapshotCounters();
    sink.emit(Record("core")
                  .str("when", when)
                  .i64("lanes", core.lanes())
                  .u64("program_hits", core.programs().hits())
                  .u64("program_misses", core.programs().misses())
                  .u64("snapshot_hits", snaps.hits)
                  .u64("snapshot_misses", snaps.misses));
}

int
serveZipf(Sink &sink, const Inputs &in)
{
    std::map<std::string, const Workload *> kernels;
    if (!resolveOrders("serve_zipf", in.serialOrders, kernels))
        return 2;

    serve::ServeOptions options;
    options.fabric = primaryFabric();
    options.fabrics = serveLanes;
    options.regionsPerFabric = 1;

    // Set-up: the core (its lanes build their machines) and one
    // request per kernel to warm the program and snapshot caches.
    std::map<std::string, Inputs::Request> warmRequests;
    std::map<std::string, Inputs::Request> serialRequests;
    for (const auto &[name, w] : kernels) {
        warmRequests[name] = Inputs::Request{0, 0, "warmup", name};
        serialRequests[name] = Inputs::Request{0, 0, "serial", name};
    }
    std::unique_ptr<serve::ServeCore> core;
    for (int s = 0; s < in.setups; ++s) {
        core.reset();
        const Clock::time_point t0 = Clock::now();
        const long span = sink.span("setup", std::to_string(s), t0, t0, -1);
        core = std::make_unique<serve::ServeCore>(options);
        std::vector<InFlight> warm;
        for (const std::string &name : in.serialOrders.front()) {
            InFlight f;
            f.index = warm.size();
            f.request = &warmRequests.at(name);
            f.due = f.sent = Clock::now();
            f.future = core->submit(makeRequest(*f.request));
            f.submitted = Clock::now();
            warm.push_back(std::move(f));
        }
        for (InFlight &f : warm) {
            f.future.wait();
            recordResponse(sink, "warmup", f, Clock::now());
        }
        sink.close(span, Clock::now());
        sink.emit(Record("setup").num("s", secondsSince(t0)));
    }
    emitCoreCounters(sink, "after_setup", *core);

    // The phases run in rounds, so each phase samples the whole run
    // rather than one stretch of it.
    std::vector<InFlight> outstanding;
    std::size_t next = 0;
    std::size_t closedNext = 0;
    std::size_t serialNext = 0;
    std::size_t serialServed = 0;
    for (int round = 0; round < in.rounds; ++round) {
        // Open loop: send each request when due, never block; latency
        // runs from the due time.  A traced run traces every other
        // request.
        const Clock::time_point openStart =
            Clock::now() + std::chrono::milliseconds(5);
        auto dueOf = [&](const Inputs::Request &r) {
            return openStart + std::chrono::microseconds(
                                   static_cast<std::int64_t>(r.dueMs * 1000));
        };
        auto pending = [&] {
            return next < in.open.size() && in.open[next].round == round;
        };
        std::size_t peak = 0;
        while (pending() || !outstanding.empty()) {
            collectReady(sink, "open", outstanding);
            const Clock::time_point now = Clock::now();
            while (pending() && dueOf(in.open[next]) <= now) {
                InFlight f;
                f.index = next;
                f.request = &in.open[next++];
                f.due = dueOf(*f.request);
                f.traced = sink.tracing() && f.index % 2 == 0;
                submitOne(sink, *core, "open", std::move(f), outstanding);
                peak = std::max(peak, outstanding.size());
            }
            Clock::time_point wake = Clock::now() + pollPeriod;
            if (pending())
                wake = std::min(wake, dueOf(in.open[next]));
            std::this_thread::sleep_until(wake);
        }
        sink.emit(Record("phase")
                      .str("phase", "open")
                      .i64("round", round)
                      .num("s", secondsSince(openStart))
                      .u64("peak_outstanding", peak));

        // Closed loop: keep closedInFlight requests outstanding.
        const Clock::time_point closedStart = Clock::now();
        while (secondsSince(closedStart) < in.closedSeconds ||
               !outstanding.empty()) {
            collectReady(sink, "closed", outstanding);
            while (secondsSince(closedStart) < in.closedSeconds &&
                   outstanding.size() < closedInFlight) {
                InFlight f;
                f.index = closedNext;
                f.request = &in.closed[closedNext++ % in.closed.size()];
                f.due = Clock::now();
                f.traced = sink.tracing();
                submitOne(sink, *core, "closed", std::move(f), outstanding);
            }
            std::this_thread::sleep_for(pollPeriod);
        }
        sink.emit(Record("phase")
                      .str("phase", "closed")
                      .i64("round", round)
                      .num("s", secondsSince(closedStart)));

        // Serial passes: one request at a time over the kernel mix.
        const Clock::time_point serialStart = Clock::now();
        do {
            const std::vector<std::string> &order =
                in.serialOrders[serialNext++ % in.serialOrders.size()];
            for (const std::string &name : order) {
                InFlight f;
                f.index = serialServed++;
                f.request = &serialRequests.at(name);
                f.due = f.sent = Clock::now();
                f.traced = sink.tracing();
                f.future = core->submit(makeRequest(*f.request));
                f.submitted = Clock::now();
                f.future.wait();
                recordResponse(sink, "serial", f, Clock::now());
            }
        } while (secondsSince(serialStart) < in.serialSeconds);
        sink.emit(Record("phase")
                      .str("phase", "serial")
                      .i64("round", round)
                      .num("s", secondsSince(serialStart)));
    }
    emitCoreCounters(sink, "end", *core);
    return 0;
}

// ---------------------------------------------------------- self-test

/** Checks of the fingerprint helper on real compiled programs. */
int
selfTest()
{
    const Compiler compiler(primaryFabric(), CompilerOptions{});
    const CompileResult si1 = compiler.compile("SI");
    const CompileResult si2 = compiler.compile("SI");
    const CompileResult crc = compiler.compile("CRC");
    if (!si1.ok() || !si2.ok() || !crc.ok()) {
        std::fprintf(stderr, "selftest: compile failed\n");
        return 1;
    }
    const std::vector<std::uint32_t> words =
        encodeProgram(si1.kernel->program);
    std::vector<std::uint32_t> flipped = words;
    flipped.back() ^= 1u;
    const bool ok =
        fingerprint({}) == 0xcbf29ce484222325ull &&
        fingerprint(words) ==
            fingerprint(encodeProgram(si2.kernel->program)) &&
        fingerprint(words) !=
            fingerprint(encodeProgram(crc.kernel->program)) &&
        fingerprint(words) != fingerprint(flipped);
    std::printf("selftest %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --inputs PATH "
                 "--seconds S --trace 0|1 --out PATH\n"
                 "       perfbench_driver --selftest\n"
                 "       perfbench_driver --fingerprint WORD...\n");
    return 2;
}

int
realMain(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0)
        return selfTest();
    if (argc >= 2 && std::strcmp(argv[1], "--fingerprint") == 0) {
        std::vector<std::uint32_t> words;
        for (int i = 2; i < argc; ++i)
            words.push_back(static_cast<std::uint32_t>(
                std::strtoul(argv[i], nullptr, 0)));
        std::printf("%s\n", hex64(fingerprint(words)).c_str());
        return 0;
    }

    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char *required :
         {"workload", "inputs", "seconds", "trace", "out"})
        if (!args.count(required) || argc != 11)
            return usage();
    const std::string workload = args["workload"];
    const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
    const bool tracing = args["trace"] == "1";
    if (!(seconds > 0) || (!tracing && args["trace"] != "0"))
        return usage();

    Inputs inputs;
    std::string error;
    if (!readInputs(args["inputs"], inputs, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    Sink sink(tracing);
    emitMeta(sink, workload, tracing);
    int status = 0;
    if (workload == "compile_cold")
        status = compileCold(sink, inputs, seconds);
    else if (workload == "sim_suite")
        status = simSuite(sink, inputs, seconds);
    else if (workload == "serve_zipf")
        status = serveZipf(sink, inputs);
    else
        return usage();
    emitRss(sink);
    if (!sink.write(args["out"])) {
        std::fprintf(stderr, "cannot write '%s'\n", args["out"].c_str());
        return 2;
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 3;
    }
}
