#include "minicaffe/layers/deconv_layer.hpp"

#include <algorithm>

#include "kernels/blas.hpp"
#include "kernels/cpu_math.hpp"
#include "kernels/nn.hpp"

namespace mc {

// Shapes: bottom [N, Ci, H, W] → top [N, Co, H', W'] with
// H' = stride·(H−1) + kernel − 2·pad (the inverse of conv_out_size).
// Weights follow Caffe's deconv layout [Ci, Co·kh·kw]: the forward GEMM is
// col = W^T · bottom(n), scattered by col2im into the (larger) output.

void DeconvolutionLayer::setup(const std::vector<Blob*>& bottom,
                               const std::vector<Blob*>& top) {
  GLP_REQUIRE(bottom.size() == 1 && top.size() == 1,
              "Deconvolution expects one bottom and one top");
  const LayerParams& p = spec_.params;
  GLP_REQUIRE(p.num_output > 0 && p.kernel_size > 0,
              "Deconvolution needs num_output and kernel_size");
  GLP_REQUIRE(p.group == 1, "Deconvolution does not support groups yet");

  num_ = bottom[0]->num();
  channels_ = bottom[0]->channels();
  height_ = bottom[0]->height();
  width_ = bottom[0]->width();
  out_h_ = p.stride * (height_ - 1) + p.kernel_size - 2 * p.pad;
  out_w_ = p.stride * (width_ - 1) + p.kernel_size - 2 * p.pad;
  GLP_REQUIRE(out_h_ > 0 && out_w_ > 0,
              "Deconvolution output collapses to zero for " << spec_.name);
  kernel_dim_ = p.num_output * p.kernel_size * p.kernel_size;
  // One gradient slot per sample up to kern::kSharedSlots, then shared.
  accum_slots_ = std::min(kern::kSharedSlots, num_);

  top[0]->reshape({num_, p.num_output, out_h_, out_w_});

  if (param_blobs_.empty()) {
    param_blobs_.push_back(
        std::make_shared<Blob>(*ec_->ctx, std::vector<int>{channels_, kernel_dim_}));
    param_blobs_.push_back(
        std::make_shared<Blob>(*ec_->ctx, std::vector<int>{p.num_output}));
    if (ec_->numeric()) {
      fill_blob(p.weight_filler, ec_->rng, *param_blobs_[0]);
      fill_blob(p.bias_filler, ec_->rng, *param_blobs_[1]);
    }
  }

  // Gradient-accumulation scratch is backward-only; forward-only serving
  // sessions never pay for it.
  if (!ec_->inference) {
    const std::size_t out_spatial = static_cast<std::size_t>(out_h_) * out_w_;
    ones_.allocate(*ec_->ctx, out_spatial);
    if (ec_->numeric()) kern::cpu::fill(out_spatial, 1.0f, ones_.data());

    weight_partial_.allocate(*ec_->ctx, static_cast<std::size_t>(accum_slots_) *
                                            channels_ * kernel_dim_);
    bias_partial_.allocate(*ec_->ctx, static_cast<std::size_t>(accum_slots_) *
                                          p.num_output);
  }
}

void DeconvolutionLayer::ensure_col_lane(int lane) {
  const std::size_t count =
      static_cast<std::size_t>(kernel_dim_) * height_ * width_;
  while (static_cast<int>(col_lanes_.size()) <= lane) {
    col_lanes_.emplace_back(*ec_->ctx, count);
  }
}

void DeconvolutionLayer::forward(const std::vector<Blob*>& bottom,
                                 const std::vector<Blob*>& top) {
  const LayerParams& p = spec_.params;
  const float* bottom_data = bottom[0]->data();
  float* top_data = top[0]->mutable_data();
  const float* weights = param_blobs_[0]->data();
  const float* bias = param_blobs_[1]->data();
  const int in_spatial = height_ * width_;
  const int out_spatial = out_h_ * out_w_;
  const std::size_t bottom_stride = bottom[0]->sample_size();
  const std::size_t top_stride = top[0]->sample_size();

  ec_->dispatcher->begin_scope(spec_.name + "/fwd", static_cast<std::size_t>(num_));
  for (int n = 0; n < num_; ++n) {
    const kern::Lane lane = ec_->dispatcher->task_lane(static_cast<std::size_t>(n));
    ensure_col_lane(lane.lane);
    float* col = col_lanes_[static_cast<std::size_t>(lane.lane)].data();
    const kern::Launcher L = launcher("fwd", lane.stream);
    float* top_n = top_data + static_cast<std::size_t>(n) * top_stride;

    // col [kernel_dim x in_spatial] = W^T [kernel_dim x Ci] · bottom(n)
    kern::sgemm(L, true, false, kernel_dim_, in_spatial, channels_, 1.0f,
                weights, kernel_dim_,
                bottom_data + static_cast<std::size_t>(n) * bottom_stride,
                in_spatial, 0.0f, col, in_spatial);
    // Scatter-add into the output (which col2im expects pre-zeroed).
    kern::sfill(L, top_stride, 0.0f, top_n);
    kern::col2im(L, col, p.num_output, out_h_, out_w_, p.kernel_size,
                 p.kernel_size, p.pad, p.pad, p.stride, p.stride, top_n);
    if (p.bias_term) {
      kern::add_bias(L, p.num_output, out_spatial, bias, top_n);
    }
  }
  ec_->dispatcher->end_scope();
}

void DeconvolutionLayer::backward(const std::vector<Blob*>& top,
                                  const std::vector<bool>& propagate_down,
                                  const std::vector<Blob*>& bottom) {
  const LayerParams& p = spec_.params;
  const float* bottom_data = bottom[0]->data();
  const float* top_diff = top[0]->diff();
  const float* weights = param_blobs_[0]->data();
  const int in_spatial = height_ * width_;
  const int out_spatial = out_h_ * out_w_;
  const std::size_t bottom_stride = bottom[0]->sample_size();
  const std::size_t top_stride = top[0]->sample_size();
  const std::size_t wcount = param_blobs_[0]->count();
  float* bottom_diff = propagate_down[0] ? bottom[0]->mutable_diff() : nullptr;

  const kern::Launcher L0 = launcher("bwd");
  kern::sfill(L0, weight_partial_.count(), 0.0f, weight_partial_.data());
  if (p.bias_term) kern::sfill(L0, bias_partial_.count(), 0.0f, bias_partial_.data());

  ec_->dispatcher->begin_scope(spec_.name + "/bwd", static_cast<std::size_t>(num_));
  for (int n = 0; n < num_; ++n) {
    // All samples of a slot share its lane, so they accumulate in
    // ascending n on one stream (see kern::kSharedSlots).
    const int slot = n % kern::kSharedSlots;
    const kern::Lane lane =
        ec_->dispatcher->task_lane(static_cast<std::size_t>(slot));
    ensure_col_lane(lane.lane);
    float* col = col_lanes_[static_cast<std::size_t>(lane.lane)].data();
    const kern::Launcher L = launcher("bwd", lane.stream);
    const float* tdiff_n = top_diff + static_cast<std::size_t>(n) * top_stride;

    // col = im2col(top_diff(n)) over the *output* geometry.
    kern::im2col(L, tdiff_n, p.num_output, out_h_, out_w_, p.kernel_size,
                 p.kernel_size, p.pad, p.pad, p.stride, p.stride, col);
    // dW_slot [Ci x kernel_dim] += bottom(n) [Ci x in_spatial] · col^T
    kern::sgemm(L, false, true, channels_, kernel_dim_, in_spatial, 1.0f,
                bottom_data + static_cast<std::size_t>(n) * bottom_stride,
                in_spatial, col, in_spatial, 1.0f,
                weight_partial_.data() + static_cast<std::size_t>(slot) * wcount,
                kernel_dim_);
    if (p.bias_term) {
      kern::sgemm(L, false, false, p.num_output, 1, out_spatial, 1.0f, tdiff_n,
                  out_spatial, ones_.data(), 1, 1.0f,
                  bias_partial_.data() +
                      static_cast<std::size_t>(slot) * p.num_output,
                  1);
    }
    if (bottom_diff != nullptr) {
      // dbottom(n) [Ci x in_spatial] += W [Ci x kernel_dim] · col
      kern::sgemm(L, false, false, channels_, in_spatial, kernel_dim_, 1.0f,
                  weights, kernel_dim_, col, in_spatial, 1.0f,
                  bottom_diff + static_cast<std::size_t>(n) * bottom_stride,
                  in_spatial);
    }
  }
  ec_->dispatcher->end_scope();

  kern::reduce_lanes(L0, accum_slots_, wcount, weight_partial_.data(),
                     param_blobs_[0]->mutable_diff());
  if (p.bias_term) {
    kern::reduce_lanes(L0, accum_slots_, static_cast<std::size_t>(p.num_output),
                       bias_partial_.data(), param_blobs_[1]->mutable_diff());
  }
}

}  // namespace mc
