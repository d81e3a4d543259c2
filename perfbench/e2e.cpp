// End-to-end benchmark harness for BookLeaf-CPP (driven by run.py).
//
// One process runs one workload: repeated *repetitions*, each of which
// builds the problem, sets the driver up and takes a fixed number of
// timed steps, until the --seconds budget is spent. Repetition 0 is the
// cold one and is kept only as setup.cold_s; the end-to-end metrics are
// medians over the warm repetitions. Every repetition checks its own
// result and counts as one operation (a failed check is a failed one).
//
// With --trace 1 the odd warm repetitions stay untimed-instrumented and
// the even ones are traced: spans around the layer calls, per-step step
// records, the per-kernel profiler snapshots and the typhon traffic. The
// traced run reports the per-layer split and how much the tracing costs.
//
// Nothing here adds a timer to the library: it times the calls it makes
// into each layer's public functions and reads what the drivers already
// return (core::Hydro::profiler(), dist::Result::profiles / ::traffic /
// ::telemetry).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "ckpt/checkpoint.hpp"
#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "geom/geometry.hpp"
#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "setup/deck.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace bc = bookleaf::core;
namespace bd = bookleaf::dist;
namespace bk = bookleaf::ckpt;
namespace bm = bookleaf::mesh;
namespace bs = bookleaf::setup;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;
using Kernel = bu::Kernel;
using Profile = std::array<bu::KernelStats, bu::kernel_count>;
using Fields = std::span<const Real>;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { serial, ale, restart };

struct Workload {
    const char* name;
    Kind kind;
    const char* deck;     ///< deck file under data/
    const char* override; ///< deck text appended (later keys win)
    int steps;            ///< timed steps per repetition (fixed: checksums)
    int ranks;
    int threads;
};

constexpr Workload workloads[] = {
    {"noh-lag-serial-250k", Kind::serial, "noh.in",
     "[problem]\nresolution = 500\n", 8, 1, 1},
    {"noh-ale-r2t2-250k", Kind::ale, "noh_ale.in",
     "[problem]\nresolution = 500\n[ale]\nfrequency = 1\n", 24, 2, 2},
    {"noh-scrambled-restart-r4-160k", Kind::restart, "noh.in",
     "[problem]\nresolution = 400\n", 44, 4, 1},
};

/// The restart workload checkpoints every this many steps; its restart
/// snapshot is taken after one step, so 1 + steps is a multiple of it and
/// the last checkpoint lands on the final step.
constexpr int ckpt_every = 5;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expect; ///< recorded checksum (serial / ALE workloads)
    std::string root = ".";
    std::string work = ".";
    bool record = false; ///< print the checksum, cross-checked vs serial
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest order statistic with at least ten samples beyond it (the
/// 11th-slowest); the slowest sample when there are ten or fewer.
double tail(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() > 10 ? v.size() - 11 : v.size() - 1];
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// FNV-1a of the six final fields, field by field (the per-field hashes
/// are hashed again, so the order of the fields matters).
std::string fields_checksum(Fields rho, Fields ein, Fields u, Fields v,
                            Fields x, Fields y) {
    std::vector<std::uint64_t> h;
    for (const Fields f : {rho, ein, u, v, x, y})
        h.push_back(bk::checksum(f.data(), f.size_bytes()));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      bk::checksum(h.data(), h.size() * sizeof(h[0]))));
    return buf;
}

bool all_finite(std::initializer_list<Fields> fields) {
    for (const Fields f : fields)
        for (const Real x : f)
            if (!std::isfinite(x)) return false;
    return true;
}

/// Σ rho_c * area_c over the mesh at node positions (x, y).
Real mass_of(const bm::Mesh& mesh, Fields rho, Fields x, Fields y) {
    Real m = 0.0;
    for (Index c = 0; c < mesh.n_cells(); ++c)
        m += rho[static_cast<std::size_t>(c)] *
             bookleaf::geom::quad_area(bookleaf::geom::gather(mesh, x, y, c));
    return m;
}

bool close(Real a, Real b, Real rel) {
    return std::abs(a - b) <= rel * std::abs(b);
}

// ---------------------------------------------------------------------------
// Problem construction
// ---------------------------------------------------------------------------

bs::Deck deck_of(const Workload& w, const Args& a) {
    const auto path = std::filesystem::path(a.root) / "data" / w.deck;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read deck " + path.string());
    std::stringstream text;
    text << in.rdbuf() << "\n" << w.override;
    return bs::Deck::parse_string(text.str());
}

/// The deck's Noh problem on a mesh whose cell and node numbering is
/// scrambled by mesh::permute with the workload seed. The initial
/// condition is rebuilt on the permuted mesh from node positions and BC
/// masks, the way setup::noh builds it (rho = 1, cold gas, u = -r_hat with
/// the wall-normal components zeroed).
bs::Problem scrambled_problem(const bs::Deck& deck, std::uint64_t seed) {
    bs::Problem p = bs::make_problem(deck);
    bu::SplitMix64 rng(seed);
    p.mesh = bm::permute(p.mesh, rng);
    const Real ein = p.ein.front();
    p.rho.assign(static_cast<std::size_t>(p.mesh.n_cells()), 1.0);
    p.ein.assign(p.rho.size(), ein);
    p.u.assign(static_cast<std::size_t>(p.mesh.n_nodes()), 0.0);
    p.v.assign(p.u.size(), 0.0);
    for (std::size_t n = 0; n < p.u.size(); ++n) {
        const Real x = p.mesh.x[n];
        const Real y = p.mesh.y[n];
        const Real r = std::hypot(x, y);
        if (r > 0.0) {
            p.u[n] = -x / r;
            p.v[n] = -y / r;
        }
        if (p.mesh.node_bc[n] & bm::bc::fix_u) p.u[n] = 0.0;
        if (p.mesh.node_bc[n] & bm::bc::fix_v) p.v[n] = 0.0;
    }
    return p;
}

// ---------------------------------------------------------------------------
// One repetition's measurements
// ---------------------------------------------------------------------------

struct Rep {
    bool traced = false;
    bool ok = true;
    std::string why;       ///< first failed check
    std::string checksum;
    double problem_s = 0;  ///< setup::make_problem (+ permute/IC rebuild)
    double read_s = 0;     ///< ckpt::read (restart only)
    double setup_s = 0;    ///< everything until the first step can run
    double loop_s = 0;     ///< wall of the timed steps
    double zero_s = 0;     ///< the 0-step dist::run (distributed only)
    double rcb_s = 0;      ///< part::rcb inside dist::run (traced)
    double decompose_s = 0;
    double ghost_cells = 0;
    double write_s = 0;    ///< one ckpt::write of the gathered state
    double file_mb = 0;
    int writes = 0;        ///< checkpoints the timed run wrote
    Profile prof{};        ///< rank 0's kernels over the timed steps
    Profile prof_max{};    ///< per-rank max (waits)
    double messages = 0, reals = 0; ///< typhon traffic of the timed steps
    std::vector<double> step_ms;    ///< per-step wall (traced)
    double graph_busy_us = 0, graph_capacity_us = 0;

    void fail(const std::string& what) {
        if (ok) why = what;
        ok = false;
    }
};

double slot(const Profile& p, Kernel k) {
    return p[static_cast<std::size_t>(k)].wall_s;
}

/// Rank 0's (after - before) and the max of it over the ranks. Rank 0 is
/// the reduce root and the checkpoint writer, so its timeline is the one
/// the whole run's loop wall is split along.
void profile_delta(const std::vector<Profile>& after,
                   const std::vector<Profile>& before, Rep& r) {
    for (std::size_t k = 0; k < bu::kernel_count; ++k) {
        for (std::size_t i = 0; i < after.size(); ++i) {
            bu::KernelStats d = after[i][k];
            if (i < before.size()) {
                d.wall_s -= before[i][k].wall_s;
                d.calls -= before[i][k].calls;
            }
            if (i == 0) r.prof[k] = d;
            r.prof_max[k].wall_s = std::max(r.prof_max[k].wall_s, d.wall_s);
        }
    }
}

// ---------------------------------------------------------------------------
// Serial driver: make_problem + core::Hydro, then step() x steps.
// ---------------------------------------------------------------------------

Rep run_serial(const Workload& w, const bs::Deck& deck, bool traced) {
    Rep r;
    r.traced = traced;
    const bu::Timer setup;
    bs::Problem problem = bs::make_problem(deck);
    r.problem_s = setup.elapsed();
    bc::Hydro h(std::move(problem));
    r.setup_s = setup.elapsed();

    const auto before = h.totals();
    const bu::Timer loop;
    for (int k = 0; k < w.steps; ++k) {
        if (traced) {
            const bu::Timer step;
            h.step();
            r.step_ms.push_back(step.elapsed() * 1e3);
        } else {
            h.step();
        }
    }
    r.loop_s = loop.elapsed();

    const auto& s = h.state();
    r.prof = h.profiler().snapshot();
    r.prof_max = r.prof;
    r.checksum = fields_checksum(s.rho, s.ein, s.u, s.v, s.x, s.y);
    if (!all_finite({s.rho, s.ein, s.u, s.v, s.x, s.y}))
        r.fail("non-finite field");
    const auto after = h.totals();
    // The test suite's serial-driver tolerances (test_core).
    if (!close(after.mass, before.mass, 1e-10)) r.fail("mass not conserved");
    if (!close(after.total_energy(), before.total_energy(), 1e-10))
        r.fail("energy not conserved");
    return r;
}

// ---------------------------------------------------------------------------
// Distributed driver: T(steps) - T(0 steps), both dist::run in-process.
// ---------------------------------------------------------------------------

bd::Options dist_options(const Workload& w, const bs::Problem& p,
                         bool traced, double* rcb_s) {
    bd::Options o;
    o.n_ranks = w.ranks;
    o.n_threads = w.threads;
    o.overlap = true;
    o.schedule = bookleaf::par::Schedule::taskgraph;
    o.hydro = p.hydro;
    o.ale = p.ale;
    o.t_end = p.t_end;
    if (traced) {
        o.telemetry.enabled = true;
        o.partitioner = [rcb_s](const bm::Mesh& m, int n) {
            const bu::Timer t;
            auto part = bookleaf::part::rcb(m, n);
            *rcb_s = t.elapsed();
            return part;
        };
    }
    return o;
}

/// Fill the traced fields of `r` that come out of a dist::Result pair.
void read_dist(const bd::Result& r0, const bd::Result& rk, int steps, Rep& r) {
    profile_delta(rk.profiles, r0.profiles, r);
    r.messages = static_cast<double>(rk.traffic.messages - r0.traffic.messages);
    r.reals = static_cast<double>(rk.traffic.reals - r0.traffic.reals);
    if (!r.traced) return;
    const auto& ranks = rk.telemetry.ranks;
    if (ranks.empty()) return;
    // Ranks step in lockstep: the per-step wall of the slowest rank. A
    // restarted run numbers its steps from the snapshot's step count.
    long first = rk.steps;
    for (const auto& rank : ranks)
        for (const auto& s : rank.steps) first = std::min(first, s.step);
    std::vector<double> wall(static_cast<std::size_t>(steps), 0.0);
    for (const auto& rank : ranks)
        for (const auto& s : rank.steps) {
            const auto i = static_cast<std::size_t>(s.step - first);
            wall.at(i) = std::max(wall.at(i), s.wall_us * 1e-3);
            r.graph_busy_us += s.graph_busy_us;
            r.graph_capacity_us += s.graph_makespan_us * s.graph_workers;
        }
    r.step_ms = wall;
}

void time_decompose(const bm::Mesh& mesh, int ranks, Rep& r) {
    const auto part = bookleaf::part::rcb(mesh, ranks);
    const bu::Timer t;
    const auto subs = bookleaf::part::decompose(mesh, part, ranks);
    r.decompose_s = t.elapsed();
    for (const auto& sub : subs)
        r.ghost_cells += static_cast<double>(sub.local.n_cells() -
                                             sub.n_owned_cells);
}

Rep run_ale(const Workload& w, const bs::Deck& deck, bool traced) {
    Rep r;
    r.traced = traced;
    const bu::Timer setup;
    const bs::Problem p = bs::make_problem(deck);
    r.problem_s = setup.elapsed();
    const Real mass0 = mass_of(p.mesh, p.rho, p.mesh.x, p.mesh.y);

    auto o = dist_options(w, p, traced, &r.rcb_s);
    o.max_steps = 0;
    const bu::Timer t0;
    const auto r0 = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, o);
    const double setup0 = t0.elapsed();
    r.zero_s = setup0;
    r.setup_s = r.problem_s + setup0;

    o.max_steps = w.steps;
    const bu::Timer tk;
    const auto rk = bd::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, o);
    r.loop_s = tk.elapsed() - setup0;
    read_dist(r0, rk, w.steps, r);
    if (traced) time_decompose(p.mesh, w.ranks, r);

    if (rk.steps != w.steps) r.fail("dist::run stopped early");
    if (!rk.checkpoints.empty()) r.fail("unexpected checkpoint");
    r.checksum = fields_checksum(rk.rho, rk.ein, rk.u, rk.v, rk.x, rk.y);
    if (!all_finite({rk.rho, rk.ein, rk.u, rk.v, rk.x, rk.y}))
        r.fail("non-finite field");
    // The remap conserves mass exactly; it dissipates kinetic energy by
    // design, so total energy is held by the recorded checksum instead.
    if (!close(mass_of(p.mesh, rk.rho, rk.x, rk.y), mass0, 1e-10))
        r.fail("mass not conserved");
    return r;
}

/// Restart workload state built once per process (untimed): the path of
/// the restart snapshot and the conserved totals it starts from.
struct RestartSource {
    std::string snapshot;
    std::string prefix; ///< checkpoint prefix of the timed runs
    Real mass = 0.0, energy = 0.0;
};

RestartSource write_restart_source(const bs::Deck& deck, std::uint64_t seed,
                                   const std::string& work) {
    RestartSource src;
    src.snapshot = (std::filesystem::path(work) / "restart.ckpt").string();
    src.prefix = (std::filesystem::path(work) / "bench").string();
    bc::Hydro h(scrambled_problem(deck, seed));
    h.step();
    h.save(src.snapshot);
    const auto t = h.totals();
    src.mass = t.mass;
    src.energy = t.total_energy();
    return src;
}

Rep run_restart(const Workload& w, const bs::Deck& deck, std::uint64_t seed,
                const RestartSource& src, bool traced) {
    Rep r;
    r.traced = traced;
    const bu::Timer setup;
    const bs::Problem p = scrambled_problem(deck, seed);
    r.problem_s = setup.elapsed();
    const bu::Timer read;
    const bk::Snapshot snap = bk::read(src.snapshot);
    r.read_s = read.elapsed();

    auto o = dist_options(w, p, traced, &r.rcb_s);
    o.checkpoint.every_steps = ckpt_every;
    o.checkpoint.prefix = src.prefix;
    o.max_steps = static_cast<int>(snap.steps);
    const bu::Timer t0;
    const auto r0 = bd::run(p.mesh, p.materials, snap, o);
    const double setup0 = t0.elapsed();
    r.zero_s = setup0;
    r.setup_s = setup.elapsed();

    o.max_steps = static_cast<int>(snap.steps) + w.steps;
    const bu::Timer tk;
    const auto rk = bd::run(p.mesh, p.materials, snap, o);
    r.loop_s = tk.elapsed() - setup0;
    read_dist(r0, rk, w.steps, r);
    r.writes = static_cast<int>(rk.checkpoints.size());
    if (traced) {
        time_decompose(p.mesh, w.ranks, r);
        const auto path = src.prefix + "_write_probe.ckpt";
        const bu::Timer t;
        bk::write(path, snap);
        r.write_s = t.elapsed();
        r.file_mb = static_cast<double>(std::filesystem::file_size(path)) /
                    (1024.0 * 1024.0);
        std::filesystem::remove(path);
    }

    if (rk.steps != o.max_steps) r.fail("dist::run stopped early");
    if (rk.checkpoints.empty()) {
        r.fail("no checkpoint written");
        return r;
    }
    // The last checkpoint, read back, is the gathered result bit for bit.
    const bk::Snapshot last = bk::read(rk.checkpoints.back());
    r.checksum = fields_checksum(rk.rho, rk.ein, rk.u, rk.v, rk.x, rk.y);
    if (last.steps != rk.steps ||
        fields_checksum(last.rho, last.ein, last.u, last.v, last.x, last.y) !=
            r.checksum)
        r.fail("last checkpoint differs from the gathered result");
    if (!all_finite({rk.rho, rk.ein, rk.u, rk.v, rk.x, rk.y}))
        r.fail("non-finite field");
    Real energy = 0.0;
    for (std::size_t c = 0; c < last.ein.size(); ++c)
        energy += last.cell_mass[c] * last.ein[c];
    for (std::size_t n = 0; n < last.u.size(); ++n)
        energy += 0.5 * last.node_mass[n] *
                  (last.u[n] * last.u[n] + last.v[n] * last.v[n]);
    if (!close(mass_of(p.mesh, rk.rho, rk.x, rk.y), src.mass, 1e-10))
        r.fail("mass not conserved");
    if (!close(energy, src.energy, 1e-10)) r.fail("energy not conserved");
    return r;
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

std::string read_first_line(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

/// Size of the last-level cache in MiB (0 when sysfs does not say).
double llc_mb() {
    double best = 0.0;
    int best_level = 0;
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        const std::string level = read_first_line(dir + "/level");
        const std::string size = read_first_line(dir + "/size");
        if (level.empty() || size.empty()) continue;
        double mb = std::stod(size);
        if (size.back() == 'K') mb /= 1024.0;
        else if (size.back() == 'G') mb *= 1024.0;
        if (std::stoi(level) >= best_level) {
            best_level = std::stoi(level);
            best = mb;
        }
    }
    return best;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
    std::string name, unit;
    double value;
};

constexpr std::pair<Kernel, const char*> hydro_kernels[] = {
    {Kernel::getq, "getq"},     {Kernel::getforce, "getforce"},
    {Kernel::getgeom, "getgeom"}, {Kernel::getacc, "getacc"},
    {Kernel::getpc, "getpc"},   {Kernel::getein, "getein"},
    {Kernel::getrho, "getrho"}, {Kernel::getdt, "getdt"},
};
constexpr std::pair<Kernel, const char*> ale_kernels[] = {
    {Kernel::alegetmesh, "getmesh"}, {Kernel::alegetfvol, "getfvol"},
    {Kernel::aleadvect, "advect"},   {Kernel::aleupdate, "update"},
    {Kernel::ale_gradients, "gradients"}, {Kernel::ale_fluxes, "fluxes"},
    {Kernel::ale_cells, "cells"},    {Kernel::ale_dual, "dual"},
    {Kernel::ale_nodes, "nodes"},
};
constexpr std::pair<Kernel, const char*> typhon_kernels[] = {
    {Kernel::halo_pack, "halo_pack"},     {Kernel::halo_wait, "halo_wait"},
    {Kernel::halo_unpack, "halo_unpack"}, {Kernel::reduce_wait, "reduce_wait"},
};

/// Median over the traced repetitions of a per-repetition quantity.
template <typename F>
double traced_median(const std::vector<Rep>& reps, F&& f) {
    std::vector<double> v;
    for (const auto& r : reps)
        if (r.traced) v.push_back(f(r));
    return median(v);
}

std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<Rep>& reps,
                                  double cold_s, double ns_untraced,
                                  double ns_traced, std::vector<std::string>& bad) {
    const double steps = w.steps;
    auto per_step_ms = [&](Kernel k) {
        return traced_median(reps, [&](const Rep& r) {
            return slot(r.prof, k) * 1e3 / steps;
        });
    };
    std::vector<Metric> m;
    m.push_back({"setup.problem_s", "s",
                 traced_median(reps, [](const Rep& r) { return r.problem_s; })});
    m.push_back({"setup.driver_s", "s", traced_median(reps, [](const Rep& r) {
                     return r.setup_s - r.problem_s - r.read_s;
                 })});
    m.push_back({"setup.cold_s", "s", cold_s});
    m.push_back({"part.rcb_s", "s",
                 traced_median(reps, [](const Rep& r) { return r.rcb_s; })});
    m.push_back({"part.decompose_s", "s",
                 traced_median(reps, [](const Rep& r) { return r.decompose_s; })});
    m.push_back({"part.ghost_cells", "count",
                 traced_median(reps, [](const Rep& r) { return r.ghost_cells; })});
    m.push_back({"ckpt.read_s", "s",
                 traced_median(reps, [](const Rep& r) { return r.read_s; })});
    const double write_ms = traced_median(reps, [&](const Rep& r) {
        return r.write_s * 1e3 * r.writes / steps;
    });
    m.push_back({"ckpt.write_ms", "ms", write_ms});
    m.push_back({"ckpt.file_mb", "MB",
                 traced_median(reps, [](const Rep& r) { return r.file_mb; })});

    double hydro_ms = 0.0;
    for (const auto& [k, name] : hydro_kernels) {
        const double v = per_step_ms(k);
        hydro_ms += v;
        m.push_back({std::string("hydro.") + name + "_ms", "ms", v});
    }
    m.push_back({"hydro.total_ms", "ms", hydro_ms});

    double ale_ms = 0.0, ale_any = 0.0;
    for (const auto& [k, name] : ale_kernels) {
        const double v = per_step_ms(k);
        if (!bu::kernel_is_detail(k)) ale_ms += v;
        ale_any += v;
        m.push_back({std::string("ale.") + name + "_ms", "ms", v});
    }
    const double remaps = traced_median(reps, [](const Rep& r) {
        return static_cast<double>(
            r.prof[static_cast<std::size_t>(Kernel::aleupdate)].calls);
    });
    m.push_back({"ale.remaps", "count", remaps / steps});

    double typhon_any = 0.0;
    for (const auto& [k, name] : typhon_kernels) {
        // Waits are the slowest rank's; pack/unpack rank 0's.
        const bool wait = k == Kernel::halo_wait || k == Kernel::reduce_wait;
        const double v = traced_median(reps, [&](const Rep& r) {
            return slot(wait ? r.prof_max : r.prof, k) * 1e3 / steps;
        });
        typhon_any += v;
        m.push_back({std::string("typhon.") + name + "_ms", "ms", v});
    }
    const double typhon_ms = per_step_ms(Kernel::halo) + per_step_ms(Kernel::reduce);
    const double msgs = traced_median(reps, [&](const Rep& r) {
        return r.messages / steps;
    });
    m.push_back({"typhon.msgs_per_step", "count", msgs});
    m.push_back({"typhon.reals_per_step", "count",
                 traced_median(reps, [&](const Rep& r) { return r.reals / steps; })});

    m.push_back({"par.busy_frac", "ratio", traced_median(reps, [](const Rep& r) {
                     return r.graph_capacity_us > 0.0
                                ? r.graph_busy_us / r.graph_capacity_us
                                : 0.0;
                 })});

    std::vector<double> samples;
    for (const auto& r : reps)
        if (r.traced) samples.insert(samples.end(), r.step_ms.begin(), r.step_ms.end());
    m.push_back({"core.step_ms_p50", "ms", median(samples)});
    m.push_back({"core.step_ms_tail", "ms", tail(samples)});
    m.push_back({"core.step_samples", "count", static_cast<double>(samples.size())});
    m.push_back({"core.first_step_ms", "ms", traced_median(reps, [](const Rep& r) {
                     return r.step_ms.empty() ? 0.0 : r.step_ms.front();
                 })});
    const double other_ms = per_step_ms(Kernel::other);
    m.push_back({"core.other_ms", "ms", other_ms});
    const double wall_ms =
        traced_median(reps, [&](const Rep& r) { return r.loop_s * 1e3 / steps; });
    m.push_back({"core.loop_ms", "ms", wall_ms});
    const double attributed = hydro_ms + ale_ms + typhon_ms + other_ms + write_ms;
    const double unattributed = wall_ms - attributed;
    m.push_back({"core.unattributed_ms", "ms", unattributed});
    m.push_back({"trace.overhead_frac", "ratio",
                 ns_untraced > 0.0 ? ns_traced / ns_untraced - 1.0 : 0.0});

    // --- reconciliation self-check ------------------------------------------
    // The split adds up to the loop wall by construction (unattributed is the
    // remainder). What can fail is the attribution: the profiler scopes on
    // rank 0's own thread cannot exceed its loop wall. Left out of that
    // bound: the ALE advection on threaded ranks (task-graph nodes, summed
    // worker-seconds) and the checkpoint write (a standalone estimate). The
    // tolerance covers the distributed loop wall, T(K) - T(0), whose two
    // set-ups differ by a few percent between runs.
    const double worker_ms = w.threads > 1 ? per_step_ms(Kernel::aleadvect) : 0.0;
    if (!std::isfinite(unattributed) ||
        attributed - worker_ms - write_ms > 1.10 * wall_ms)
        bad.push_back("attributed layer time exceeds the loop wall");
    const double ckpt_any = write_ms + traced_median(reps, [](const Rep& r) {
                                return r.read_s + r.writes;
                            });
    if (w.kind != Kind::ale && (ale_any != 0.0 || remaps != 0.0))
        bad.push_back("ale layer ran on a workload that bypasses it");
    if (w.kind == Kind::serial && (typhon_any != 0.0 || typhon_ms != 0.0 || msgs != 0.0))
        bad.push_back("typhon layer ran on the serial workload");
    if (w.kind != Kind::restart && ckpt_any != 0.0)
        bad.push_back("ckpt layer ran on a workload that bypasses it");
    if (w.kind == Kind::ale && (ale_ms <= 0.0 || remaps <= 0.0))
        bad.push_back("ale layer did not run on the ALE workload");
    if (w.kind != Kind::serial && msgs <= 0.0)
        bad.push_back("typhon layer did not run on a distributed workload");
    if (w.kind == Kind::restart && write_ms <= 0.0)
        bad.push_back("ckpt layer did not run on the restart workload");
    return m;
}

int usage(const char* why) {
    std::cerr << "perfbench_e2e: " << why
              << "\nusage: perfbench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--expect HEX] [--root DIR] "
                 "[--work DIR] [--record]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    // Fix glibc's mmap threshold at its default value (which also turns off
    // its dynamic adjustment): every large array is a fresh mapping that is
    // returned on free, so peak RSS tracks live memory instead of the heap
    // history of the rank threads' arenas, and each warm repetition faults
    // in fresh pages the way a fresh process does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
            return argv[++i];
        };
        try {
            if (k == "--workload") a.workload = val();
            else if (k == "--seed") a.seed = std::stoull(val());
            else if (k == "--seconds") a.seconds = std::stod(val());
            else if (k == "--trace") a.trace = val() != "0";
            else if (k == "--expect") a.expect = val();
            else if (k == "--root") a.root = val();
            else if (k == "--work") a.work = val();
            else if (k == "--record") a.record = true;
            else return usage(("unknown argument " + k).c_str());
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
    const bool asserts = true;
#else
    const bool asserts = false;
#endif
    if (build_type != "Release" || asserts) {
        std::cerr << "perfbench_e2e: refusing to time a '" << build_type
                  << "' build (Release without assertions required)\n";
        return 2;
    }
    const Workload* wp = nullptr;
    for (const auto& w : workloads)
        if (a.workload == w.name) wp = &w;
    if (wp == nullptr) return usage(("unknown workload '" + a.workload + "'").c_str());
    const Workload& w = *wp;
    if (a.record && w.kind == Kind::restart)
        return usage("--record needs a workload with a recorded checksum");

    try {
        const bs::Deck deck = deck_of(w, a);
        RestartSource src;
        if (w.kind == Kind::restart) src = write_restart_source(deck, a.seed, a.work);

        auto rep = [&](bool traced) {
            switch (w.kind) {
            case Kind::serial: return run_serial(w, deck, traced);
            case Kind::ale: return run_ale(w, deck, traced);
            case Kind::restart: return run_restart(w, deck, a.seed, src, traced);
            }
            return Rep{};
        };

        if (a.record) {
            // Checksum of the workload's final fields, cross-checked against
            // the serial driver on the same deck (the bitwise rank/thread
            // invariance contract), for run.py's table of recorded values.
            Rep r = rep(false);
            bc::Hydro h(bs::make_problem(deck));
            for (int k = 0; k < w.steps; ++k) h.step();
            const auto& s = h.state();
            const std::string serial =
                fields_checksum(s.rho, s.ein, s.u, s.v, s.x, s.y);
            std::cout << "{\"workload\": " << json_string(w.name)
                      << ", \"checksum\": " << json_string(r.checksum)
                      << ", \"serial_checksum\": " << json_string(serial)
                      << ", \"ok\": " << (r.ok ? "true" : "false") << "}\n";
            return r.ok && r.checksum == serial ? 0 : 1;
        }

        // Repetition 0 is cold; then warm repetitions while another one
        // still fits in the budget (at least three warm ones). Under
        // --trace 1 the warm ones alternate untraced / traced so both see
        // the same machine state.
        std::vector<Rep> reps;
        std::vector<double> rep_wall;
        const bu::Timer budget;
        const std::size_t min_reps = a.trace ? 5 : 4;
        while (reps.size() < min_reps ||
               budget.elapsed() + median(rep_wall) < a.seconds) {
            const bu::Timer one;
            reps.push_back(rep(a.trace && !reps.empty() && reps.size() % 2 == 0));
            rep_wall.push_back(one.elapsed());
        }

        const double cells = static_cast<double>(
            deck.get_int("problem", "resolution", 0)) *
            deck.get_int("problem", "resolution", 0);
        long failed = 0;
        for (std::size_t i = 0; i < reps.size(); ++i) {
            Rep& r = reps[i];
            if (!a.expect.empty() && r.ok && r.checksum != a.expect)
                r.fail("checksum " + r.checksum + " != recorded " + a.expect);
            if (w.kind == Kind::restart && r.checksum != reps.front().checksum)
                r.fail("checksum differs between repetitions");
            if (!r.ok) {
                ++failed;
                std::cerr << "perfbench_e2e: repetition " << i
                          << " failed: " << r.why << "\n";
            }
        }

        std::vector<double> setup, ns, ns_traced;
        for (std::size_t i = 1; i < reps.size(); ++i) {
            const double v = reps[i].loop_s * 1e9 / (cells * w.steps);
            (reps[i].traced ? ns_traced : ns).push_back(v);
            if (!reps[i].traced) setup.push_back(reps[i].setup_s);
        }
        const double rss = peak_rss_mb();
        const double llc = llc_mb();
        std::vector<std::string> bad;
        std::vector<Metric> metrics;
        if (a.trace) {
            metrics = layer_metrics(w, reps, reps.front().setup_s, median(ns),
                                    median(ns_traced), bad);
        } else {
            metrics = {{"ns_per_cell_step", "ns", median(ns)},
                       {"setup_s", "s", median(setup)},
                       {"peak_rss_mb", "MB", rss}};
        }
        for (const auto& b : bad) std::cerr << "perfbench_e2e: " << b << "\n";

        std::cout << "{\"fingerprint\": {\"workload\": " << json_string(w.name)
                  << ", \"seed\": " << a.seed << ", \"cells\": " << num(cells)
                  << ", \"steps_per_rep\": " << w.steps
                  << ", \"ranks\": " << w.ranks << ", \"threads\": " << w.threads
                  << ", \"reps\": " << reps.size()
                  << ", \"nproc\": " << std::thread::hardware_concurrency()
                  << ", \"cpu\": " << json_string(cpu_model())
                  << ", \"llc_mb\": " << num(llc)
                  << ", \"peak_rss_mb\": " << num(rss)
                  << ", \"working_set_over_llc\": " << num(llc > 0 ? rss / llc : 0)
                  << ", \"build_type\": " << json_string(build_type)
                  << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
                  << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
                  << ", \"checksum\": " << json_string(reps.front().checksum)
                  << "}}\n";
        std::cout << "{\"reps\": [";
        for (std::size_t i = 0; i < reps.size(); ++i)
            std::cout << (i ? ", " : "") << "{\"traced\": "
                      << (reps[i].traced ? "true" : "false")
                      << ", \"setup_s\": " << num(reps[i].setup_s)
                      << ", \"loop_s\": " << num(reps[i].loop_s)
                      << ", \"zero_s\": " << num(reps[i].zero_s)
                      << ", \"ok\": " << (reps[i].ok ? "true" : "false") << "}";
        std::cout << "]}\n";

        const bool correct = failed == 0 && bad.empty();
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << reps.size()
                  << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::cout << (i ? ", " : "") << json_string(metrics[i].name)
                      << ": {\"value\": " << num(metrics[i].value)
                      << ", \"unit\": " << json_string(metrics[i].unit) << "}";
        std::cout << "}}\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_e2e: error: " << e.what() << "\n";
        return 1;
    }
}
