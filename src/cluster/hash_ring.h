// Consistent-hash ring for the cluster tier (DESIGN.md §10).  Each node
// contributes `vnodes_per_node` points on a 64-bit ring; a placement key
// hashes to a point and is owned by the next `replication` *distinct*
// nodes clockwise.  Virtual nodes smooth the load split (stddev shrinks
// with sqrt(vnodes)), and adding one node steals only ~1/N of each
// existing node's keyspace — the property live migration depends on.
//
// Keys are *placement keys*, not raw queries: the router derives them via
// core/placement's PlacementAnchor (or a tenant prefix), so every
// paraphrase of a piece of knowledge lands on the same owner and hot
// semantic neighborhoods stay co-resident.
//
// HashRing is a copyable value type with no locks: the router mutates a
// copy off to the side and swaps it in under its state lock, so readers
// never observe a half-built ring.  version() bumps on every mutation.
// Shared instances are externally synchronized — the router's live rings
// live under state_mu_ with GUARDED_BY annotations (router.h), which is
// where cortex_analyzer's guarded-by check enforces the discipline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cortex::cluster {

// Where a node listens: TCP host:port, or a Unix-domain socket when
// unix_path is non-empty (which then takes precedence).
struct NodeEndpoint {
  std::string host;
  int port = 0;
  std::string unix_path;

  // "host:port" or "unix:PATH" — the inverse of ParseEndpoint.
  std::string ToString() const;
};

// Parses "host:port" or "unix:PATH".  Returns nullopt and fills `error`
// on malformed input.
std::optional<NodeEndpoint> ParseEndpoint(std::string_view text,
                                          std::string* error = nullptr);

struct HashRingOptions {
  std::size_t vnodes_per_node = 64;
  // Distinct owners per key (primary + replicas); clamped to the node
  // count when the ring is smaller.
  std::size_t replication = 1;
};

class HashRing {
 public:
  explicit HashRing(HashRingOptions options = {});

  // CHECK-fails on a duplicate name or empty name/endpoint.
  void AddNode(const std::string& name, const NodeEndpoint& endpoint);
  // Returns false when the name is not on the ring.
  bool RemoveNode(std::string_view name);

  bool HasNode(std::string_view name) const;
  std::size_t num_nodes() const noexcept;
  // Sorted by name, for stable exposition.
  std::vector<std::string> NodeNames() const;
  const NodeEndpoint* EndpointOf(std::string_view name) const;

  // Up to `replication` distinct owner names, clockwise from the key's
  // point; fewer when the ring holds fewer nodes, empty on an empty ring.
  // The first entry is the primary.
  std::vector<std::string> OwnersFor(std::string_view key) const;
  std::string PrimaryFor(std::string_view key) const;

  // The key's position on the ring (exposed so tests can pin placement).
  static std::uint64_t PointFor(std::string_view key);

  std::uint64_t version() const noexcept { return version_; }
  const HashRingOptions& options() const noexcept { return options_; }

 private:
  struct Node {
    std::string name;
    NodeEndpoint endpoint;
  };
  struct VNode {
    std::uint64_t point;
    std::uint32_t node;  // index into nodes_
  };

  void Rebuild();

  HashRingOptions options_;
  std::vector<Node> nodes_;
  std::vector<VNode> vnodes_;  // sorted by point
  std::uint64_t version_ = 0;
};

}  // namespace cortex::cluster
