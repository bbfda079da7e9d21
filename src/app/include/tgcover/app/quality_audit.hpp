#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tgcover/core/pipeline.hpp"
#include "tgcover/obs/quality.hpp"

namespace tgc::app {

/// CLI-facing quality-auditing knobs, shared by the single-run commands and
/// the fleet runner. All of them are observation parameters: none enters a
/// manifest's semantic config, so arming never changes any other stream.
struct QualityKnobs {
  std::string path;          ///< --quality-out (empty = unarmed)
  double rs = 1.0;           ///< --rs sensing radius
  std::uint64_t every = 1;   ///< --quality-every sampling stride
  double cell = 0.05;        ///< --quality-cell rasterizer cell side
};

/// One geometric + topological quality measurement of `active` over `net`:
/// coverage fraction, k-coverage histogram and redundancy (CellGrid
/// rasterizer), largest-hole diameter, awake-set component count, and the
/// smallest certifiable τ (≤ tau_cap). Runs entirely under a CostAuditScope,
/// so re-entering the counted Horton/GF(2) kernels to measure quality never
/// perturbs the gated cost stream.
obs::QualityProbeResult probe_network_quality(const core::Network& net,
                                              const std::vector<bool>& active,
                                              double rs, double cell_size,
                                              unsigned tau_cap);

/// Builds an armed QualityAuditor over `net` (nullptr when knobs.path is
/// empty): composes the probe closure, precomputes the Proposition 1 bound
/// for γ = Rc/rs, and echoes the geometry into the stream header. The
/// returned auditor captures `net` by reference — it must not outlive the
/// network. Binding to the thread is the caller's job (an obs::ObserverScope
/// around the CLI command's run or the fleet runner's cell).
std::unique_ptr<obs::QualityAuditor> make_quality_auditor(
    const core::Network& net, unsigned tau, const QualityKnobs& knobs);

}  // namespace tgc::app
