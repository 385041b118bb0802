#include "fl/round.h"

#include <algorithm>
#include <cmath>

#include "core/rng.h"

namespace fedfc::fl {

std::vector<size_t> SampleParticipants(const RoundSpec& spec, size_t num_clients) {
  std::vector<size_t> sampled;
  if (spec.policy.participation_fraction >= 1.0) {
    sampled.resize(num_clients);
    for (size_t j = 0; j < num_clients; ++j) sampled[j] = j;
    return sampled;
  }
  auto k = static_cast<size_t>(std::ceil(spec.policy.participation_fraction *
                                         static_cast<double>(num_clients)));
  k = std::min(num_clients, std::max<size_t>(1, k));
  Rng rng(spec.sampling_seed);
  sampled = rng.Sample(num_clients, k);
  // Ascending order keeps the gather (and everything derived from it)
  // independent of the RNG's draw order.
  std::sort(sampled.begin(), sampled.end());
  return sampled;
}

}  // namespace fedfc::fl
