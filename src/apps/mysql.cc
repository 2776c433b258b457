/// \file
/// MySQL model implementation.

#include "apps/mysql.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/thread.h"

namespace vdom::apps {

MysqlConfig
MysqlConfig::for_arch(hw::ArchKind kind, std::size_t connections)
{
    MysqlConfig c;
    c.connections = connections;
    if (kind == hw::ArchKind::kX86) {
        // ~6M cycles/query; 26 x 2.1GHz saturates near 5.5e3 q/s once the
        // serialized engine section binds (Fig. 6 left).
        c.parse_cycles = 2'300'000;
        c.engine_cycles = 2'620'000;
        c.serial_cycles = 380'000;
        c.query_io = 600'000;
        c.client_delay = 0;
    } else {
        // Raspberry Pi 3: ~2.4M CPU cycles/query plus a large client
        // turnaround (sysbench shares the Pi's 4 cores), which makes the
        // paper's ARM curve rise toward ~2e3 q/s at 12+ clients.
        c.parse_cycles = 1'200'000;
        c.engine_cycles = 850'000;
        c.serial_cycles = 150'000;
        c.query_io = 200'000;
        c.client_delay = 3'600'000;
    }
    return c;
}

namespace {

/// Serialized storage-engine critical section (row locks, log mutex):
/// what caps MySQL throughput before core count does.
struct EngineLock {
    hw::Cycles free_at = 0;

    /// True when the lock is free at the caller's local time.
    bool available(const hw::Core &core) const
    {
        return core.now() >= free_at;
    }
};

struct MysqlShared {
    const MysqlConfig *config;
    std::uint64_t completed = 0;
    EngineLock lock;
    std::vector<hw::Vpn> table_pages;  ///< First page of each table.
    int data_obj = -1;                 ///< Shared HP_PTRS domain handle.
};

/// One connection-handler thread.
class MysqlConn final : public sim::SimThread {
  public:
    MysqlConn(MysqlShared &shared, Strategy &strategy,
              kernel::Process &proc, std::size_t id,
              std::size_t my_queries)
        : shared_(&shared),
          strat_(&strategy),
          proc_(&proc),
          id_(id),
          rng_(0x5157ULL * (id + 1)),
          queries_left_(my_queries)
    {
    }

    bool
    step(hw::Core &core) override
    {
        const MysqlConfig &cfg = *shared_->config;
        switch (phase_) {
          case Phase::kConnect: {
            strat_->thread_init(core, *task());
            // Private stack domain for this connection handler.
            hw::Vpn stack = proc_->mm().mmap(cfg.stack_pages);
            stack_page_ = stack;
            stack_obj_ = strat_->register_object(core, *task(), stack,
                                                 cfg.stack_pages, true);
            // Stagger client start times (real clients are never phase
            // locked; synchronized herds create beat artifacts in the
            // rise-to-plateau knee).
            next_ready_ = core.now() +
                          (cfg.client_delay * static_cast<double>(id_)) /
                              static_cast<double>(cfg.connections);
            phase_ = Phase::kAcquireStack;
            return true;
          }
          case Phase::kAcquireStack: {
            if (queries_left_ == 0)
                return false;
            // Wait out the client's turnaround between queries.  The last
            // wait step charges the exact remainder so wake-up is not
            // quantized (quantization creates beat artifacts between
            // threads).
            if (core.now() < next_ready_) {
                core.charge(hw::CostKind::kIdle,
                            std::min<hw::Cycles>(next_ready_ - core.now(),
                                                 10'000));
                yield();
                return true;
            }
            if (!strat_->enable(core, *task(), stack_obj_,
                                VPerm::kFullAccess)) {
                return true;
            }
            phase_ = Phase::kParse;
            return true;
          }
          case Phase::kParse: {
            strat_->access(core, *task(), stack_page_, true);
            strat_->work(core, cfg.parse_cycles);
            spins_ = 0;
            phase_ = Phase::kAcquireData;
            return true;
          }
          case Phase::kAcquireData: {
            if (!strat_->enable(core, *task(), shared_->data_obj,
                                VPerm::kFullAccess)) {
                // libmpk hold-and-wait breaker: after a while, release the
                // stack key so a peer can make progress, then retry the
                // whole protection sequence (massive thrash — exactly the
                // ">14 clients" collapse the paper describes).
                if (++spins_ > 16) {
                    strat_->disable(core, *task(), stack_obj_);
                    phase_ = Phase::kAcquireStack;
                }
                return true;
            }
            phase_ = Phase::kEngineLock;
            return true;
          }
          case Phase::kEngineLock: {
            // Contended threads yield the core instead of spinning (the
            // real mutex sleeps).
            if (!shared_->lock.available(core)) {
                core.charge(hw::CostKind::kIdle,
                            std::min<hw::Cycles>(
                                shared_->lock.free_at - core.now(), 5'000));
                yield();
                return true;
            }
            // Serialized section runs under the lock — including any
            // strategy tax (in-VM EPK pays it here too).
            strat_->work(core, cfg.serial_cycles);
            shared_->lock.free_at = core.now();
            phase_ = Phase::kEngine;
            return true;
          }
          case Phase::kEngine: {
            std::size_t table = rng_.below(cfg.tables);
            for (std::size_t r = 0; r < cfg.rows_touched; ++r) {
                hw::Vpn page = shared_->table_pages[table] +
                               rng_.below(cfg.table_pages);
                strat_->access(core, *task(), page, r % 4 == 0);
            }
            strat_->work(core, cfg.engine_cycles);
            strat_->disable(core, *task(), shared_->data_obj);
            phase_ = Phase::kFinish;
            return true;
          }
          case Phase::kFinish: {
            strat_->io(core, cfg.query_io);
            strat_->disable(core, *task(), stack_obj_);
            ++shared_->completed;
            --queries_left_;
            // Jittered client turnaround (+-20%): real network/client
            // timing is never deterministic, and the jitter prevents
            // phase-locked convoys in the knee region.
            next_ready_ = core.now() +
                          cfg.client_delay * (0.8 + 0.4 * rng_.uniform());
            phase_ = Phase::kAcquireStack;
            return true;
          }
        }
        return false;
    }

  private:
    enum class Phase {
        kConnect,
        kAcquireStack,
        kParse,
        kAcquireData,
        kEngineLock,
        kEngine,
        kFinish,
    };

    MysqlShared *shared_;
    Strategy *strat_;
    kernel::Process *proc_;
    std::size_t id_;
    sim::Rng rng_;
    std::size_t queries_left_;
    Phase phase_ = Phase::kConnect;
    int stack_obj_ = -1;
    hw::Vpn stack_page_ = 0;
    std::size_t spins_ = 0;
    hw::Cycles next_ready_ = 0;
};

}  // namespace

MysqlResult
run_mysql(hw::Machine &machine, kernel::Process &proc, Strategy &strategy,
          const MysqlConfig &config)
{
    MysqlShared shared;
    shared.config = &config;

    // The MEMORY engine's tables: HP_PTRS structures all share one vdom.
    kernel::Task *init_task = proc.create_task();
    hw::Core &core0 = machine.core(0);
    proc.switch_to(core0, *init_task, false);
    strategy.thread_init(core0, *init_task);
    for (std::size_t t = 0; t < config.tables; ++t)
        shared.table_pages.push_back(proc.mm().mmap(config.table_pages));
    // Register table 0's pages to create the shared domain, then attach
    // the rest of the tables to the same object where the strategy
    // supports it (lowerbound/libmpk/VDom all key by object handle; for
    // simplicity each table's pages are registered under one handle).
    shared.data_obj = strategy.register_object(
        core0, *init_task, shared.table_pages[0], config.table_pages, true);
    for (std::size_t t = 1; t < config.tables; ++t) {
        strategy.attach_pages(core0, *init_task, shared.data_obj,
                              shared.table_pages[t], config.table_pages);
    }

    std::vector<std::unique_ptr<MysqlConn>> conns;
    sim::Engine engine(machine, &proc, 250'000);
    bool timed = config.duration > 0;
    std::size_t per_conn = timed
        ? std::numeric_limits<std::size_t>::max() / 2
        : config.total_queries / config.connections;
    for (std::size_t i = 0; i < config.connections; ++i) {
        std::size_t extra = (!timed &&
                             i < config.total_queries % config.connections)
            ? 1
            : 0;
        conns.push_back(std::make_unique<MysqlConn>(
            shared, strategy, proc, i, per_conn + extra));
        conns.back()->set_task(proc.create_task());
        engine.add_thread(conns.back().get(),
                          static_cast<int>(i % machine.num_cores()));
    }
    if (timed)
        engine.run_until(config.duration);
    else
        engine.run();

    MysqlResult result;
    result.completed = shared.completed;
    result.elapsed = timed ? config.duration : machine.max_clock();
    result.breakdown = machine.total_breakdown();
    result.engine_steps = engine.steps();
    result.engine_yields = engine.yields();
    double seconds = result.elapsed / (machine.params().cpu_ghz * 1e9);
    result.queries_per_sec =
        seconds > 0 ? static_cast<double>(result.completed) / seconds : 0;
    return result;
}

}  // namespace vdom::apps
