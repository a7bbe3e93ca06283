#ifndef GRAPHSIG_SERVE_CATALOG_HANDLE_H_
#define GRAPHSIG_SERVE_CATALOG_HANDLE_H_

// Hot-swappable catalog reference for generation-aware serving.
//
// The streaming pipeline re-mines as batches arrive; each mine produces
// a new artifact stamped with its ingest-log generation. A long-lived
// server must switch to the new catalog without dropping in-flight
// queries, so the server holds a CatalogHandle instead of a raw
// catalog pointer:
//
//   * every request handler snapshots Current() exactly once and runs
//     against that immutable catalog for its whole lifetime — a swap
//     mid-request is invisible to it,
//   * Swap() publishes the next generation; the previous catalog stays
//     alive (shared_ptr) until the last in-flight request holding it
//     finishes.
//
// tests/net_test.cc drives a live server through swaps under load (and
// under TSan) asserting zero dropped queries and that Stats reports the
// new generation.

#include <memory>
#include <utility>

#include "serve/pattern_catalog.h"
#include "util/sync.h"

namespace graphsig::serve {

class CatalogHandle {
 public:
  explicit CatalogHandle(std::shared_ptr<const PatternCatalog> catalog)
      : catalog_(std::move(catalog)) {}

  CatalogHandle(const CatalogHandle&) = delete;
  CatalogHandle& operator=(const CatalogHandle&) = delete;

  // The catalog to serve this request from. Never null.
  std::shared_ptr<const PatternCatalog> Current() const GS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    return catalog_;
  }

  // Publishes `next` and returns the catalog it replaced. In-flight
  // requests keep their snapshot; new requests see `next`.
  std::shared_ptr<const PatternCatalog> Swap(
      std::shared_ptr<const PatternCatalog> next) GS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    std::swap(catalog_, next);
    return next;
  }

 private:
  mutable util::Mutex mu_;
  std::shared_ptr<const PatternCatalog> catalog_ GS_GUARDED_BY(mu_);
};

}  // namespace graphsig::serve

#endif  // GRAPHSIG_SERVE_CATALOG_HANDLE_H_
