#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.h"

/// The benchmark's clients. serve::RunLoadgen discards response bodies,
/// so it cannot check answers; these keep every response.
///
///  * BinaryClient: one persistent binary-protocol connection with one
///    request in flight (closed loop), built on serve::EncodeQueryFrame /
///    serve::DecodeResponseFrame.
///  * HttpCall: one HTTP/1.1 request per connection (the server answers
///    Connection: close), used for POST /insert and GET /metrics.

namespace perfbench {

class BinaryClient {
 public:
  BinaryClient() = default;
  ~BinaryClient();
  BinaryClient(const BinaryClient&) = delete;
  BinaryClient& operator=(const BinaryClient&) = delete;

  bool Connect(uint16_t port);

  /// Sends one encoded query frame and blocks for its response. Returns
  /// false on a transport or framing failure.
  bool RoundTrip(const std::string& frame, abitmap::serve::QueryResponse* out);

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Returns false on a transport failure or an unparseable reply.
bool HttpCall(uint16_t port, const std::string& method,
              const std::string& path, const std::string& body,
              HttpReply* out);

/// {"rows": [[v, v, v], ...]} with every double printed round-trip exact,
/// so the server ingests bit-identical values to the ones the oracle uses.
std::string InsertBody(const std::vector<std::vector<double>>& rows);

/// Extracts the acknowledged row ids from a POST /insert reply body.
bool ParseInsertRowIds(const std::string& body, std::vector<uint64_t>* ids);

/// Unlabelled samples of a Prometheus text exposition, by metric name.
std::map<std::string, double> ParsePrometheus(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
