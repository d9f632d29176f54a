//! Graph-Challenge-style network configurations.
//!
//! The MIT/IEEE/Amazon Sparse DNN Graph Challenge generates its synthetic
//! benchmark networks with RadiX-Net: `N` neurons per layer with a fixed
//! number of connections per neuron, stacked for `L` layers, constant
//! weights and a per-layer negative bias. The official sizes (1024–65536
//! neurons × 120–1920 layers) are reproduced here in shape and scaled down
//! in magnitude so a single machine regenerates every series in seconds.
//!
//! Construction: a radix-`r`, depth-`k` uniform system gives `N' = r^k`
//! neurons at `r` connections per neuron per layer; concatenating
//! `L / k` such systems yields an `L`-layer RadiX-Net with uniform degree —
//! exactly the Challenge generator's recipe.

use radix_net::{MixedRadixSystem, RadixError, RadixNetSpec};

/// Configuration of a Graph-Challenge-style sparse DNN.
#[derive(Debug, Clone, PartialEq)]
pub struct ChallengeConfig {
    /// Connections per neuron (the radix `r`).
    pub radix: usize,
    /// Radices per system (`k`; neurons per layer = `r^k`).
    pub depth_per_system: usize,
    /// Number of concatenated systems (total layers = `k · num_systems`).
    pub num_systems: usize,
    /// Constant weight value (the Challenge uses `1/r` so activations
    /// neither explode nor vanish).
    pub weight: f32,
    /// Constant per-neuron bias (the Challenge uses small negatives, e.g.
    /// −0.30 for 32 connections).
    pub bias: f32,
    /// Activation clamp `YMAX` (the Challenge clips at 32).
    pub ymax: f32,
}

impl ChallengeConfig {
    /// The standard scaled-down preset, matching the official Challenge
    /// dynamics: weight `2/r` (the official 32-connection nets use 1/16,
    /// i.e. a per-layer gain of 2) with bias `−0.30` and `YMAX = 32`. The
    /// gain-2/negative-bias pair gives the Challenge's signature behaviour:
    /// activations below the 0.3 fixed point die out, those above grow
    /// until the clamp holds them at `YMAX`.
    #[must_use]
    pub fn preset(radix: usize, depth_per_system: usize, num_systems: usize) -> Self {
        ChallengeConfig {
            radix,
            depth_per_system,
            num_systems,
            weight: 2.0 / radix as f32,
            bias: -0.30,
            ymax: 32.0,
        }
    }

    /// Neurons per layer, `r^k`.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.radix.pow(self.depth_per_system as u32)
    }

    /// Total number of edge layers, `k · num_systems`.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.depth_per_system * self.num_systems
    }

    /// Edges per layer (`neurons · r`).
    #[must_use]
    pub fn edges_per_layer(&self) -> usize {
        self.neurons() * self.radix
    }

    /// Total edges across the network.
    #[must_use]
    pub fn total_edges(&self) -> usize {
        self.edges_per_layer() * self.num_layers()
    }

    /// Builds the RadiX-Net spec generating this network's topology.
    ///
    /// # Errors
    /// Propagates construction errors (degenerate radix, overflow).
    pub fn spec(&self) -> Result<RadixNetSpec, RadixError> {
        let system = MixedRadixSystem::uniform(self.radix, self.depth_per_system)?;
        let systems = vec![system; self.num_systems.max(1)];
        RadixNetSpec::extended_mixed_radix(systems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_challenge_arithmetic() {
        // Scaled analogue of the official 1024-neuron network: r=32, k=2.
        let c = ChallengeConfig::preset(32, 2, 3);
        assert_eq!(c.neurons(), 1024);
        assert_eq!(c.num_layers(), 6);
        assert_eq!(c.edges_per_layer(), 32768);
        // Official 32-connection nets: weight 1/16 (gain 2), bias −0.30.
        assert!((c.weight - 1.0 / 16.0).abs() < 1e-9);
        assert!((c.bias + 0.3).abs() < 1e-6);
    }

    #[test]
    fn spec_builds_uniform_degree_topology() {
        let c = ChallengeConfig::preset(4, 3, 2);
        let net = c.spec().unwrap().build();
        let g = net.fnnt();
        assert_eq!(g.layer_sizes(), vec![64; 7]);
        assert_eq!(g.num_edge_layers(), 6);
        for l in 0..6 {
            for i in 0..64 {
                assert_eq!(g.layer(l).row_nnz(i), 4, "layer {l} node {i}");
            }
        }
        assert_eq!(g.num_distinct_edges(), c.total_edges());
    }

    #[test]
    fn spec_is_symmetric_per_theorem1() {
        let c = ChallengeConfig::preset(2, 3, 2);
        let spec = c.spec().unwrap();
        assert!(radix_net::verify_spec(&spec).matches);
    }

    #[test]
    fn small_radix_preset_keeps_gain_two() {
        let c = ChallengeConfig::preset(2, 4, 1);
        assert!((c.weight - 1.0).abs() < 1e-7); // 2/r with r = 2
        assert!((c.bias + 0.3).abs() < 1e-7);
        assert_eq!(c.neurons(), 16);
    }
}
