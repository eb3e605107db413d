//! # xdaq-ctl — the control plane
//!
//! Paper §3.5: *"In a distributed I2O environment in which IOPs do not
//! reside on the same bus segment, a primary host controls all
//! processing nodes. Secondary hosts may register and subsequently
//! apply for control rights."* and §4: *"Configuration and control of
//! the executive is done through I2O executive messages. They are sent
//! from a Tcl script that resides on the primary host to all executives
//! in the distributed system. In principle, however, we can choose any
//! configuration language, as long as we follow I2O message format."*
//!
//! The imperative half of that story:
//!
//! * [`control`] — [`ControlHost`], a host attachment that addresses
//!   any executive in the cluster through executive-class frames and
//!   synchronously collects replies (primary/secondary control rights
//!   via claims).
//! * [`xcl`] — the *xcl* configuration language, our stand-in for the
//!   paper's Tcl: a small line-oriented script interpreter whose
//!   commands translate one-to-one into I2O executive messages.
//!
//! A script works until a node dies mid-run and a human has to replay
//! the right prefix of it against a half-alive fleet. The declarative
//! half closes that loop: the cluster is described once, as data, and
//! a controller owns the difference between that declaration and
//! reality:
//!
//! * [`toml`] / [`decl`] — a TOML-ish topology format: nodes, device
//!   classes to load on them, routes between them, node parameters
//!   (`supervision.*`, `transport`). No address is written down: the
//!   routes carry the live transport addresses.
//! * [`registry`] — a live [`ServiceRegistry`]: observed health per
//!   node, generation counters, and a streamed event feed (spawned,
//!   published, up, link-down, exited, draining, drained) fed by the
//!   convergence loop, by the control host's own link supervisor (a
//!   Down link fences the node), and by child-process exit.
//! * [`launch`] / [`runner`] — the process side: a [`Launcher`]
//!   spawns each node (the stock [`SelfExec`] re-executes the current
//!   binary), and [`run_managed_node`] turns the child into the
//!   declared executive, publishing a generation-stamped url file.
//! * [`controller`] — the [`Controller`] itself: `apply` converges
//!   the fleet (spawn → attach → load → route → enable, the same step
//!   list `plan` prints), a background tick reaps exits, fences nodes
//!   whose link is Down and respawns-with-reroute until the fleet
//!   matches the declaration, and `drain` does a rolling restart that
//!   empties a node through the data plane's own recovery paths before
//!   stopping it through the same reap.
//!
//! An [`XclInterpreter`] with the controller attached drives it from
//! script — `plan`, `apply`, `registry`, `drain <node>` — and `mon`
//! grows a `ctl_status` section.

#![warn(missing_docs)]

pub mod control;
pub mod controller;
pub mod decl;
pub mod launch;
pub mod registry;
pub mod runner;
pub mod toml;
pub mod xcl;

pub use control::{ControlError, ControlHost, ControlReply};
pub use controller::{control_host, Controller};
pub use decl::{DeclError, ModuleDecl, NodeDecl, RouteDecl, Topology};
pub use launch::{LaunchSpec, Launcher, SelfExec};
pub use registry::{Event, EventKind, Health, NodeStatus, ServiceRegistry, Subscription};
pub use runner::{node_config, run_managed_node, ManagedEnv};
pub use xcl::{XclError, XclInterpreter, XclOutcome};
