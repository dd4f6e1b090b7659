//! Integration tests for the beyond-the-paper extensions.

use appmult::mult::{SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult::nn::layers::{Flatten, Linear, Sequential};
use appmult::nn::serialize::{load_params, save_params};
use appmult::nn::Module;
use appmult::retrain::{GradientLut, GradientMode};

#[test]
fn signed_wrapper_drives_the_gradient_builder() {
    // The offset-binary LUT of a signed AppMult feeds the standard
    // difference-based gradient machinery.
    let signed = SignMagnitudeMultiplier::new(TruncatedMultiplier::new(6, 4));
    let lut = signed.to_offset_lut();
    let grads = GradientLut::build(&lut, GradientMode::difference_based(4));
    // The offset encoding makes the product increase with the w-code on
    // the positive half and decrease on the negative half; around the
    // centre code the gradient wrt the x-code flips sign accordingly.
    let w_pos = 32 + 20; // value +20
    let w_neg = 32 - 20; // value -20
    let x_mid = 40;
    assert!(grads.wrt_x(w_pos, x_mid) > 0.0);
    assert!(grads.wrt_x(w_neg, x_mid) < 0.0);
}

#[test]
fn checkpoint_round_trip_through_the_facade() {
    let mut model = Sequential::new()
        .push(Flatten::new())
        .push(Linear::new(8, 4, 11));
    let mut buf = Vec::new();
    save_params(&mut model, &mut buf).expect("save");
    let mut restored = Sequential::new()
        .push(Flatten::new())
        .push(Linear::new(8, 4, 99));
    load_params(&mut restored, buf.as_slice()).expect("load");
    let x = appmult::nn::Tensor::from_vec((0..16).map(|i| i as f32 * 0.1).collect(), &[2, 8]);
    assert_eq!(model.forward(&x, false), restored.forward(&x, false));
}
