#pragma once
// Campaign-report emission.  The JSON document this writer produces is
// THE byte-compared artifact of the campaign determinism gates
// (tests/test_campaign.cpp, DESIGN.md §15): two runs of the same spec must
// serialize identically for any shard size, thread count, or
// kill-and-resume split.  Two consequences shape the schema:
//
//   * Nothing schedule- or partition-dependent appears: no shard size,
//     no job counts, no timings — only the spec axes and the exact
//     per-cell aggregates, which the reducers guarantee are
//     partition-invariant.
//   * All floats use fixed %.6f formatting (and the aggregates they
//     print from are bit-identical anyway), so equality is byte
//     equality.

#include <iosfwd>
#include <string>

#include "campaign/campaign.hpp"

namespace vipvt {

/// Aggregate campaign JSON: axes, totals, then one block per cell in
/// cell-index order (axis values, tallies, moment statistics).
void write_campaign_json(std::ostream& os, const CampaignReport& report);

/// File variant; throws on I/O failure.
void write_campaign_json_file(const std::string& path,
                              const CampaignReport& report);

}  // namespace vipvt
