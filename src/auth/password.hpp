// Userid/password authentication (paper layer 2, initial phase:
// "user authentication based on userid and password").
//
// Passwords are stored salted and key-stretched (iterated HMAC-SHA-256),
// never in the clear.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace pg::auth {

class PasswordStore {
 public:
  /// `iterations` trades verification cost for brute-force resistance.
  explicit PasswordStore(std::uint32_t iterations = 1000)
      : iterations_(iterations) {}

  /// Registers or replaces a user's password.
  void set_password(const std::string& user, const std::string& password,
                    Rng& rng);

  bool has_user(const std::string& user) const;
  void remove_user(const std::string& user);

  /// kUnauthenticated on unknown user or wrong password — the two cases are
  /// indistinguishable to the caller (no user-enumeration oracle).
  Status verify(const std::string& user, const std::string& password) const;

  std::size_t user_count() const { return entries_.size(); }

  /// The stored hash of `password` under `salt`: HMAC-SHA-256 keyed by the
  /// salt over the password, then `iterations` - 1 more rounds, each over
  /// the previous tag.
  static Bytes stretch(std::string_view password, BytesView salt,
                       std::uint32_t iterations);

 private:
  struct Entry {
    Bytes salt;
    Bytes hash;
  };

  std::uint32_t iterations_;
  std::map<std::string, Entry> entries_;
};

}  // namespace pg::auth
