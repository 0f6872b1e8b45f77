// On-the-fly filter layout transform (line 5 of Algorithm 2).
//
// A Tk x Tc x R x S tile of the KCRS filter is rewritten as
// [Tk/Vk][Tc][R][S][Vk] so the micro-kernel loads Vk output channels
// with one contiguous vector load. The transform runs inside loop L4,
// so the tile lands (and stays) in the L2 cache right before the
// micro-kernels start consuming it.
#pragma once

#include <cstdint>

namespace ndirect {

/// Transform the tile filter[kt : kt+tkn, ct : ct+tcn, :, :] into `tile`
/// (size ceil(tkn/vk)*tcn*R*S*vk floats). K positions beyond `K` (the
/// ragged last block) are zero-filled so the micro-kernel can always run
/// full Vk vectors.
void transform_filter_tile(const float* filter, int K, int C, int R, int S,
                           int kt, int tkn, int ct, int tcn, int vk,
                           float* tile);

/// Process-wide count of transform_filter_tile invocations (relaxed
/// atomic; monotonic). NdirectConv::pack_filter is one call; a run on
/// its packed tensor makes none. Lets tests and benches prove that
/// steady-state inference calls transform nothing: the count must not
/// move across them.
std::uint64_t transform_filter_tile_calls();

}  // namespace ndirect
