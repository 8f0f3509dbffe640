#include "storage/schema_file.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "storage/csv.h"

namespace levelheaded {

Result<ColumnSpec> ParseColumnSpec(const std::string& token) {
  std::vector<std::string> parts;
  std::stringstream ss(token);
  std::string part;
  while (std::getline(ss, part, ':')) parts.push_back(part);
  if (parts.size() < 2) {
    return Status::InvalidArgument("bad column spec '" + token +
                                   "' (want name[:key]:type[:domain])");
  }
  const std::string& name = parts[0];
  size_t idx = 1;
  bool is_key = false;
  if (parts[idx] == "key") {
    is_key = true;
    ++idx;
  }
  if (idx >= parts.size()) {
    return Status::InvalidArgument("missing type in '" + token + "'");
  }
  const std::string& type_name = parts[idx];
  ValueType type;
  if (type_name == "int") {
    type = ValueType::kInt32;
  } else if (type_name == "long") {
    type = ValueType::kInt64;
  } else if (type_name == "float") {
    type = ValueType::kFloat;
  } else if (type_name == "double") {
    type = ValueType::kDouble;
  } else if (type_name == "string") {
    type = ValueType::kString;
  } else if (type_name == "date") {
    type = ValueType::kDate;
  } else {
    return Status::InvalidArgument("unknown type '" + type_name + "'");
  }
  if (is_key) {
    std::string domain = idx + 1 < parts.size() ? parts[idx + 1] : name;
    return ColumnSpec::Key(name, type, domain);
  }
  return ColumnSpec::Annotation(name, type);
}

Result<SchemaFileSpec> ParseSchemaFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open schema file " + path);
  SchemaFileSpec spec;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::stringstream ss(line);
    std::string command;
    if (!(ss >> command) || command[0] == '#') continue;
    if (command == "table") {
      SchemaFileSpec::TableDecl decl;
      if (!(ss >> decl.name)) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": table needs a name");
      }
      std::string token;
      while (ss >> token) {
        LH_ASSIGN_OR_RETURN(ColumnSpec col, ParseColumnSpec(token));
        decl.columns.push_back(std::move(col));
      }
      spec.tables.push_back(std::move(decl));
    } else if (command == "load") {
      SchemaFileSpec::LoadDecl decl;
      if (!(ss >> decl.table >> decl.file)) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": load needs <table> <file>");
      }
      spec.loads.push_back(std::move(decl));
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown directive '" + command +
                                     "'");
    }
  }
  return spec;
}

Status DeclareSchemaTables(const SchemaFileSpec& spec, Catalog* catalog) {
  for (const SchemaFileSpec::TableDecl& decl : spec.tables) {
    // Re-declarations are skipped so each partition file of a partitioned
    // data set can carry the full shared schema.
    if (catalog->GetTable(decl.name) != nullptr) continue;
    LH_RETURN_NOT_OK(
        catalog->CreateTable(TableSchema(decl.name, decl.columns)).status());
  }
  return Status::OK();
}

Status LoadSchemaData(const SchemaFileSpec& spec, Catalog* catalog) {
  for (const SchemaFileSpec::LoadDecl& decl : spec.loads) {
    Table* table = catalog->GetTable(decl.table);
    if (table == nullptr) {
      return Status::NotFound("table '" + decl.table + "' not declared");
    }
    LH_RETURN_NOT_OK(LoadCsvFile(decl.file, CsvOptions{}, table));
  }
  return Status::OK();
}

Status LoadSchemaFile(const std::string& path, Catalog* catalog) {
  LH_ASSIGN_OR_RETURN(SchemaFileSpec spec, ParseSchemaFile(path));
  LH_RETURN_NOT_OK(DeclareSchemaTables(spec, catalog));
  return LoadSchemaData(spec, catalog);
}

}  // namespace levelheaded
