//! Cluster configuration and control from a primary host, driven by an
//! xcl script (the paper's Tcl-on-the-primary-host workflow, §4).
//!
//! Brings up three worker executives with module factories, then runs
//! an xcl script that connects, claims, loads, wires and enables the
//! whole cluster — every command is an I2O executive/utility message.
//!
//! Run with: `cargo run --example control_host`

use xdaq::app::{PingState, Pinger, Ponger};
use xdaq::core::{Executive, ExecutiveConfig, I2oListener};
use xdaq::ctl::{ControlHost, XclInterpreter};
use xdaq::pt::{LoopbackHub, LoopbackPt};

fn worker(hub: &std::sync::Arc<LoopbackHub>, name: &str) -> Executive {
    let exec = Executive::new(ExecutiveConfig::named(name));
    exec.register_pt(&format!("{name}.pt"), LoopbackPt::new(hub, name))
        .unwrap();
    // Factories available for runtime loading (ExecSwDownload).
    exec.register_factory(
        "ponger",
        Box::new(|_| Box::new(Ponger::new()) as Box<dyn I2oListener>),
    );
    exec.register_factory(
        "pinger",
        Box::new(|_| Box::new(Pinger::new(PingState::new())) as Box<dyn I2oListener>),
    );
    exec
}

const SCRIPT: &str = "\
# -- cluster bring-up --------------------------------------------------
node  ru0 loop://ru0
node  ru1 loop://ru1
node  bu0 loop://bu0
claim ru0
claim ru1
claim bu0

# load modules at runtime into the running executives
load  ru0 pinger ping0 payload=128 count=1000
load  ru1 pinger ping1 payload=128 count=1000
load  bu0 ponger pong0

# inspect
status ru0
lct    bu0

# wire ru0's pinger to bu0's ponger: create a proxy on ru0 ...
connect ru0 loop://bu0 16 bu0.pong

# run control
enable ru0
enable ru1
enable bu0
status bu0

# orderly shutdown of control rights
release ru0
release ru1
release bu0
echo cluster configured
";

fn main() {
    let hub = LoopbackHub::new();
    let workers: Vec<_> = ["ru0", "ru1", "bu0"]
        .iter()
        .map(|n| worker(&hub, n))
        .collect();
    let handles: Vec<_> = workers.iter().map(|w| w.spawn()).collect();

    let host = ControlHost::new("primary");
    host.executive()
        .register_pt("host.pt", LoopbackPt::new(&hub, "primary"))
        .unwrap();
    host.start();

    let mut interp = XclInterpreter::new(&host);
    match interp.run(SCRIPT) {
        Ok(outcome) => {
            for line in &outcome.log {
                println!("xcl> {line}");
            }
            println!("\nhandles defined by the script:");
            let mut handles_sorted: Vec<_> = outcome.handles.iter().collect();
            handles_sorted.sort_by_key(|(name, _)| name.as_str());
            for (name, tid) in handles_sorted {
                println!("  {name} = {tid}");
            }
        }
        Err(e) => eprintln!("script failed: {e}"),
    }

    host.stop();
    for h in handles {
        h.shutdown();
    }
}
