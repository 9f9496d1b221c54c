#include "core/sha256.h"

#include <openssl/evp.h>

#include <new>
#include <stdexcept>

namespace censys {
namespace {

// libcrypto reports failure (allocation, a missing provider) by returning
// 0; a hash that cannot be computed must not pass for one that was.
void Check(int ok) {
  if (ok != 1) throw std::runtime_error("sha256: libcrypto call failed");
}

// Fetched once: EVP_sha256() would look the digest up in the provider
// store on every init, a locked lookup the engine workers contend on.
const EVP_MD* Sha256Md() {
  static const EVP_MD* const md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  return md;
}

}  // namespace

void Sha256::FreeCtx::operator()(evp_md_ctx_st* ctx) const {
  EVP_MD_CTX_free(ctx);
}

Sha256::Sha256() : ctx_(EVP_MD_CTX_new()) {
  if (ctx_ == nullptr) throw std::bad_alloc();
  Reset();
}

void Sha256::Reset() {
  Check(EVP_DigestInit_ex2(ctx_.get(), Sha256Md(), nullptr));
}

void Sha256::Update(const void* data, std::size_t len) {
  Check(EVP_DigestUpdate(ctx_.get(), data, len));
}

Sha256Digest Sha256::Finish() {
  Sha256Digest digest;
  Check(EVP_DigestFinal_ex(ctx_.get(), digest.data(), nullptr));
  return digest;
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256Digest digest;
  Check(EVP_Digest(data.data(), data.size(), digest.data(), nullptr,
                   Sha256Md(), nullptr));
  return digest;
}

std::string ToHex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

std::uint64_t DigestPrefix64(const Sha256Digest& digest) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | digest[i];
  return v;
}

}  // namespace censys
