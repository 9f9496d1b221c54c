// SHA-256 (FIPS 180-4). Certificates in censysim are addressed by their
// SHA-256 fingerprint exactly as in the paper ("SHA256-FP-addressed X.509
// Certificate"), so we carry a real hash rather than a toy one: OpenSSL's
// libcrypto through the EVP digest API.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

struct evp_md_ctx_st;  // OpenSSL's EVP_MD_CTX

namespace censys {

using Sha256Digest = std::array<std::uint8_t, 32>;

// Streaming hasher. Reset() before reusing one after Finish().
class Sha256 {
 public:
  Sha256();

  void Reset();
  void Update(const void* data, std::size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  Sha256Digest Finish();

  static Sha256Digest Hash(std::string_view data);

 private:
  struct FreeCtx {
    void operator()(evp_md_ctx_st* ctx) const;
  };
  std::unique_ptr<evp_md_ctx_st, FreeCtx> ctx_;
};

// Lowercase hex encoding of a digest ("e3b0c442...").
std::string ToHex(const Sha256Digest& digest);

// First 8 bytes of the digest as a big-endian uint64; convenient compact id.
std::uint64_t DigestPrefix64(const Sha256Digest& digest);

}  // namespace censys
