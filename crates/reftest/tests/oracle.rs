//! The differential oracle suite: one test per kernel, each asserting the
//! optimized implementation stays within its declared budget on the
//! adversarial case set. A failure prints the full report, worst offender
//! first, with the case label (shape + seed) needed to replay it.

use mfn_reftest::checks;
use mfn_reftest::Report;

fn assert_ok(report: Report) {
    assert!(report.passed(), "\n{report}\n");
    // Sanity: a check that compared nothing is a broken check.
    assert!(report.elems > 0, "{} compared no elements", report.kernel);
}

#[test]
fn gemm_matches_reference() {
    assert_ok(checks::check_gemm());
}

#[test]
fn gemm_packed_matches_reference() {
    assert_ok(checks::check_gemm_packed());
}

#[test]
fn conv3d_matches_reference() {
    assert_ok(checks::check_conv3d());
}

#[test]
fn conv3d_grad_input_matches_reference() {
    assert_ok(checks::check_conv3d_grad_input());
}

#[test]
fn conv3d_grad_weight_matches_reference() {
    assert_ok(checks::check_conv3d_grad_weight());
}

#[test]
fn batch_norm_matches_reference() {
    assert_ok(checks::check_batch_norm());
}

#[test]
fn channel_affine_matches_reference() {
    assert_ok(checks::check_channel_affine());
}

#[test]
fn activations_match_reference() {
    assert_ok(checks::check_activations());
}

#[test]
fn sigmoid_matches_reference() {
    assert_ok(checks::check_sigmoid());
}

#[test]
fn linear_backward_matches_reference() {
    assert_ok(checks::check_linear_backward());
}

#[test]
fn bias_adds_match_reference() {
    assert_ok(checks::check_bias());
}

#[test]
fn blend_features_matches_reference() {
    assert_ok(checks::check_blend_features());
}

#[test]
fn gather_features_is_exact() {
    assert_ok(checks::check_gather_features());
}

#[test]
fn maxpool_matches_reference_and_propagates_nan() {
    assert_ok(checks::check_maxpool());
}

#[test]
fn upsample_is_exact() {
    assert_ok(checks::check_upsample());
}

#[test]
fn fft_matches_naive_dft() {
    assert_ok(checks::check_fft());
}

#[test]
fn spectrum_matches_reference_and_parseval() {
    assert_ok(checks::check_spectrum());
}

#[test]
fn solver_stencils_match_reference() {
    for report in checks::check_solver() {
        assert_ok(report);
    }
}

#[test]
fn trilinear_sampling_matches_reference() {
    assert_ok(checks::check_trilinear());
}

#[test]
fn downsample_is_exact() {
    assert_ok(checks::check_downsample());
}

#[test]
fn jet_decoder_matches_reference() {
    assert_ok(checks::check_jet_decoder());
}

#[test]
fn refine_objective_gradient_matches_reference() {
    assert_ok(checks::check_refine_grad());
}

#[test]
fn equation_loss_weight_gradient_matches_reference() {
    assert_ok(checks::check_eq_weight_grad());
}

#[test]
fn blocked_decode_matches_reference() {
    assert_ok(checks::check_decode_blocked());
}

#[test]
fn super_resolve_is_byte_equal_on_any_number_of_decode_threads() {
    assert_ok(checks::check_decode_threads());
}
