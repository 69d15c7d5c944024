#include "auth/password.hpp"

#include "crypto/hmac.hpp"

namespace pg::auth {

namespace {
constexpr std::size_t kSaltSize = 16;
}

Bytes PasswordStore::stretch(std::string_view password, BytesView salt,
                             std::uint32_t iterations) {
  // Keyed once per derivation, as PBKDF2 does: every round after the first
  // MACs the previous 32-byte tag in two compressions, in place.
  crypto::HmacSha256 mac(salt);
  mac.update(to_bytes(password));
  Bytes acc = mac.finish();
  for (std::uint32_t i = 1; i < iterations; ++i)
    mac.mac32_into(acc.data(), acc.data());
  return acc;
}

void PasswordStore::set_password(const std::string& user,
                                 const std::string& password, Rng& rng) {
  Entry entry;
  entry.salt = rng.next_bytes(kSaltSize);
  entry.hash = stretch(password, entry.salt, iterations_);
  entries_[user] = std::move(entry);
}

bool PasswordStore::has_user(const std::string& user) const {
  return entries_.count(user) > 0;
}

void PasswordStore::remove_user(const std::string& user) {
  entries_.erase(user);
}

Status PasswordStore::verify(const std::string& user,
                             const std::string& password) const {
  const auto it = entries_.find(user);
  if (it == entries_.end())
    return error(ErrorCode::kUnauthenticated, "bad user or password");
  const Bytes candidate = stretch(password, it->second.salt, iterations_);
  if (!constant_time_equal(candidate, it->second.hash))
    return error(ErrorCode::kUnauthenticated, "bad user or password");
  return Status::ok();
}

}  // namespace pg::auth
