//! End-to-end guarantees of the compile pipeline: bit-identical inference
//! against the masked supernet reference, artifact round-tripping, strict
//! rejection of damaged artifacts, and genuinely smaller specialized
//! weights.

use hsconas_graph::{artifact, compare, compile, execute, CompileOptions, GraphOp};
use hsconas_space::{Arch, ChannelScale, Gene, NetworkSkeleton, OpKind};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// A skeleton small enough for fast tests but with both stride-1 and
/// stride-2 searchable slots (the tiny() preset is all stride-2).
fn skeleton() -> NetworkSkeleton {
    NetworkSkeleton {
        input_resolution: 16,
        input_channels: 3,
        stem_channels: 8,
        stage_channels: [16, 32, 32, 32],
        stage_depths: [2, 2, 0, 0],
        head_channels: 64,
        num_classes: 10,
    }
}

fn gene(op: OpKind, tenths: u8) -> Gene {
    Gene::new(op, ChannelScale::from_tenths(tenths).unwrap())
}

/// Three fixed genomes covering: full width, narrow scales with a
/// fully-pruned right branch (const-folded), and both skip kinds.
fn genomes() -> Vec<Arch> {
    vec![
        // widest: no specialization beyond the structural rewrites
        Arch::widest(4),
        // narrow: layer0 keep=6 < half(16) ⇒ layer1's right branch sees
        // zero live channels and collapses to constants
        Arch::new(vec![
            gene(OpKind::Xception, 4),
            gene(OpKind::Shuffle7, 4),
            gene(OpKind::Shuffle5, 6),
            gene(OpKind::Shuffle3, 10),
        ]),
        // skip-heavy: stride-2 downsample skip and stride-1 identity skip
        Arch::new(vec![
            gene(OpKind::Skip, 10),
            gene(OpKind::Skip, 4),
            gene(OpKind::Shuffle5, 2),
            gene(OpKind::Xception, 10),
        ]),
    ]
}

fn input(seed: u64, batch: usize, res: usize) -> Tensor {
    let mut rng = SmallRng::new(seed);
    Tensor::randn([batch, 3, res, res], 1.0, &mut rng)
}

#[test]
fn compiled_graph_matches_masked_supernet_bitwise() {
    let sk = skeleton();
    let opts = CompileOptions::default();
    for (i, arch) in genomes().into_iter().enumerate() {
        let (art, stats) = compile(&sk, &arch, &opts).unwrap();
        let mut net =
            hsconas_graph::build_reference(&sk, &arch, opts.seed, opts.warmup_steps).unwrap();
        let x = input(11 + i as u64, 2, sk.input_resolution);
        let want = net.forward(&x, &arch, false).unwrap();
        let got = execute(&art.graph, &x).unwrap();
        assert_eq!(
            want.shape(),
            got.shape(),
            "genome {i}: logits shape diverged"
        );
        assert_eq!(want.data(), got.data(), "genome {i}: logits bits diverged");
        assert!(stats.fused > 0, "genome {i}: no conv+bn fusions happened");
        assert!(stats.removed > 0, "genome {i}: sweep removed nothing");
    }
}

#[test]
fn compare_reports_zero_error_at_every_boundary() {
    let sk = skeleton();
    for (i, arch) in genomes().into_iter().enumerate() {
        let (art, _) = compile(&sk, &arch, &CompileOptions::default()).unwrap();
        let x = input(23 + i as u64, 2, sk.input_resolution);
        let report = compare(&art, &x).unwrap();
        assert_eq!(report.layers.len(), 6, "stem + 4 layers + logits");
        for row in &report.layers {
            assert_eq!(
                row.max_abs_err, 0.0,
                "genome {i} boundary {} has live-prefix error",
                row.label
            );
            assert_eq!(
                row.ref_tail_max, 0.0,
                "genome {i} boundary {} dropped nonzero reference channels",
                row.label
            );
            assert!(row.physical_c <= row.logical_c);
        }
        assert_eq!(report.max_abs_err, 0.0, "genome {i}");
    }
}

#[test]
fn execution_is_repeatable() {
    let sk = skeleton();
    let arch = genomes().remove(1);
    let (art, _) = compile(&sk, &arch, &CompileOptions::default()).unwrap();
    let x = input(5, 3, sk.input_resolution);
    let a = execute(&art.graph, &x).unwrap();
    let b = execute(&art.graph, &x).unwrap();
    assert_eq!(a.data(), b.data(), "back-to-back runs diverged");
}

#[test]
fn artifact_round_trips_bitwise() {
    let sk = skeleton();
    for arch in genomes() {
        let (art, _) = compile(&sk, &arch, &CompileOptions::default()).unwrap();
        let bytes = artifact::to_bytes(&art);
        let loaded = artifact::from_bytes(&bytes).unwrap();
        assert_eq!(art.meta, loaded.meta);
        assert_eq!(art.graph, loaded.graph);
        // and a re-serialization is byte-stable
        assert_eq!(bytes, artifact::to_bytes(&loaded));
        // the loaded graph infers the same bits
        let x = input(3, 1, sk.input_resolution);
        assert_eq!(
            execute(&art.graph, &x).unwrap().data(),
            execute(&loaded.graph, &x).unwrap().data()
        );
    }
}

#[test]
fn artifact_rejects_damage_loudly() {
    let sk = skeleton();
    let arch = genomes().remove(0);
    let (art, _) = compile(&sk, &arch, &CompileOptions::default()).unwrap();
    let bytes = artifact::to_bytes(&art);

    // wrong magic
    let mut bad = bytes.clone();
    bad[0] = b'X';
    let err = artifact::from_bytes(&bad).unwrap_err().to_string();
    assert!(err.contains("magic"), "got: {err}");

    // foreign format version
    let mut bad = bytes.clone();
    bad[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = artifact::from_bytes(&bad).unwrap_err().to_string();
    assert!(err.contains("version 99"), "got: {err}");

    // truncation (header promises more payload than the file has)
    let err = artifact::from_bytes(&bytes[..bytes.len() - 7])
        .unwrap_err()
        .to_string();
    assert!(err.contains("truncated"), "got: {err}");

    // a header shorter than the envelope
    let err = artifact::from_bytes(&bytes[..10]).unwrap_err().to_string();
    assert!(err.contains("header"), "got: {err}");

    // single bit flip deep in the payload
    let mut bad = bytes.clone();
    let mid = 24 + (bytes.len() - 24) / 2;
    bad[mid] ^= 0x01;
    let err = artifact::from_bytes(&bad).unwrap_err().to_string();
    assert!(err.contains("checksum"), "got: {err}");
}

#[test]
fn specialization_shrinks_weights_and_gemms() {
    let sk = skeleton();
    let opts = CompileOptions::default();
    let (wide, _) = compile(&sk, &Arch::widest(4), &opts).unwrap();
    let narrow_arch = genomes().remove(1);
    let (narrow, stats) = compile(&sk, &narrow_arch, &opts).unwrap();
    assert!(stats.specialized > 0, "narrow genome specialized nothing");
    assert!(stats.folded > 0, "no constants were folded");
    let wide_elems = wide.graph.const_elements();
    let narrow_elems = narrow.graph.const_elements();
    assert!(
        narrow_elems < wide_elems,
        "specialized weights not smaller: {narrow_elems} vs {wide_elems}"
    );
    // at least one conv physically shrank below its slot's full width,
    // while still pinning the full-width reference GEMM shape
    let mut shrunk = 0;
    for node in &narrow.graph.nodes {
        if let GraphOp::FusedConvBn {
            params,
            ref_gemm: Some((m, k, _)),
            ..
        } = &node.op
        {
            let full_k = k / (params.kernel * params.kernel) * (params.kernel * params.kernel);
            let _ = full_k;
            if params.groups == 1
                && (params.c_out < *m || params.c_in * params.kernel * params.kernel < *k)
            {
                shrunk += 1;
            }
        }
    }
    assert!(shrunk > 0, "no conv GEMM operand physically shrank");
}

/// `.hsart` decoding reads conv `groups` from outside input, so a graph
/// may carry a grouping no model builds; executing it must fail with a
/// typed error, not a panic.
#[test]
fn grouped_conv_node_fails_execute_with_typed_error() {
    use hsconas_graph::{Graph, GraphError, NodeShape, Outlet};
    use hsconas_tensor::conv::Conv2dParams;
    use hsconas_tensor::TensorError;
    let params = Conv2dParams {
        c_in: 4,
        c_out: 4,
        kernel: 3,
        stride: 1,
        pad: 1,
        groups: 2,
    };
    let mut g = Graph::new(4, 6, 6);
    let x = g.add(GraphOp::Input, vec![], NodeShape::new(4, 6, 6));
    let weight = g.add_const(Tensor::zeros(params.weight_shape()));
    g.output = g.add(
        GraphOp::Conv {
            params,
            weight,
            ref_gemm: None,
        },
        vec![Outlet::of(x)],
        NodeShape::new(4, 6, 6),
    );
    let err = execute(&g, &Tensor::zeros([1, 4, 6, 6])).unwrap_err();
    assert!(
        matches!(
            err,
            GraphError::Tensor(TensorError::InvalidDimension { op: "conv2d", .. })
        ),
        "{err}"
    );
}
