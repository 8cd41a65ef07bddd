// The gateway queue discipline of a topology's bottleneck hops (§5 runs
// every scenario on drop-tail and on RED gateways).
#pragma once

namespace rlacast::topo {

enum class GatewayType { kDropTail, kRed };

}  // namespace rlacast::topo
