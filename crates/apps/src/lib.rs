//! # ppm-apps — the paper's applications
//!
//! The three unstructured applications of the paper's evaluation (§4), each
//! implemented three ways on the simulated cluster:
//!
//! | Application | Paper | Sequential | PPM | MPI baseline |
//! |---|---|---|---|---|
//! | Conjugate Gradient solver (27-pt 3-D diffusion) | §4.2, Fig. 1 | [`cg::seq`] | [`cg::ppm`] | [`cg::mpi`] (tuned halo exchange) |
//! | Sparse matrix generation, multiscale collocation | §4.3, Fig. 2 | [`matgen::seq`] | [`matgen::ppm`] | [`matgen::mpi`] (hand-bundled table exchange) |
//! | Barnes–Hut N-body | §4.4, Fig. 3 | [`barnes_hut::seq`] | [`barnes_hut::ppm`] | [`barnes_hut::mpi`] (replicated-tree method) |
//! | PageRank (demonstration beyond the evaluation; §1's "graph algorithms") | — | [`pagerank::seq`] | [`pagerank::ppm`] | [`pagerank::mpi`] |
//!
//! Every version of an application charges identical floating-point work
//! and computes (numerically) the same answer, so the simulated-time
//! comparisons isolate the programming models — which is what the paper's
//! figures show.

#![deny(unsafe_code)]

pub mod barnes_hut;
pub mod cg;
pub mod matgen;
pub mod pagerank;
pub mod rng;
pub mod sparse;
pub mod stencil27;
