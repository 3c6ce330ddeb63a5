#ifndef REVERE_STORAGE_CATALOG_H_
#define REVERE_STORAGE_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/table.h"

namespace revere::storage {

/// What a structural change did to a catalog's table set.
enum class TableChange { kCreated, kDropped };

/// Owns a database's tables by name. Each REVERE peer holds one Catalog
/// for its stored relations.
class Catalog {
 public:
  /// Told the table's name after every successful CreateTable and
  /// DropTable, before the call returns.
  using Observer =
      std::function<void(const std::string& name, TableChange change)>;

  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; AlreadyExists if the name is taken.
  Result<Table*> CreateTable(TableSchema schema);

  /// Looks up a table; NotFound when absent.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  /// All table names, sorted (map keeps them ordered).
  std::vector<std::string> TableNames() const;

  size_t table_count() const { return tables_.size(); }

  /// Installs the one structural-change observer (replacing any
  /// previous one; an empty function removes it). An owner that derives
  /// state from the table set installs it so the state follows every
  /// create and drop, whoever makes them.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  Observer observer_;
};

}  // namespace revere::storage

#endif  // REVERE_STORAGE_CATALOG_H_
