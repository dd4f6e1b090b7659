//! Neural-network layers with explicit forward/backward passes.

mod act;
mod conv;
mod dropout;
mod flatten;
mod linear;
mod norm;
mod pool;
mod residual;
mod sequential;

pub use act::Relu;
pub use conv::{
    col2im, col2im_add, im2col, im2col_gather, nchw_to_rows, rows_to_nchw, Conv2d, Conv2dSpec,
};
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::Residual;
pub use sequential::Sequential;
