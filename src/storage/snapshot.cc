#include "storage/snapshot.h"

#include <cstring>
#include <fstream>

#include "util/logging.h"

namespace levelheaded {

namespace {

constexpr char kMagic[8] = {'L', 'H', 'S', 'N', 'A', 'P', '0', '1'};

class Writer {
 public:
  explicit Writer(std::ofstream* out) : out_(out) {}

  void U8(uint8_t v) { out_->write(reinterpret_cast<const char*>(&v), 1); }
  void U32(uint32_t v) {
    out_->write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void U64(uint64_t v) {
    out_->write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    out_->write(reinterpret_cast<const char*>(v.data()),
                static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
  void StrVec(const std::vector<std::string>& v) {
    U64(v.size());
    for (const std::string& s : v) Str(s);
  }

 private:
  std::ofstream* out_;
};

/// Reads the fields Writer wrote. Every length field is checked against
/// the bytes left in the file before anything is allocated: a corrupt
/// length fails the stream (ok() turns false) instead of requesting a
/// huge allocation.
class Reader {
 public:
  Reader(std::ifstream* in, uint64_t file_size)
      : in_(in), file_size_(file_size) {}

  bool ok() const { return in_->good(); }

  uint8_t U8() {
    uint8_t v = 0;
    in_->read(reinterpret_cast<char*>(&v), 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    in_->read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    in_->read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  }
  std::string Str() {
    const uint32_t n = U32();
    if (!Fits(n, 1)) return {};
    std::string s(n, '\0');
    in_->read(s.data(), n);
    return s;
  }
  template <typename T>
  std::vector<T> Vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t n = U64();
    if (!Fits(n, sizeof(T))) return {};
    std::vector<T> v(n);
    in_->read(reinterpret_cast<char*>(v.data()),
              static_cast<std::streamsize>(n * sizeof(T)));
    return v;
  }
  std::vector<std::string> StrVec() {
    const uint64_t n = U64();
    // Each string carries at least its 4-byte length.
    if (!Fits(n, sizeof(uint32_t))) return {};
    std::vector<std::string> v(n);
    for (uint64_t i = 0; i < n && ok(); ++i) v[i] = Str();
    return v;
  }

 private:
  /// Whether `n` items of `item_bytes` each fit in the bytes left; fails
  /// the stream when they do not.
  bool Fits(uint64_t n, uint64_t item_bytes) {
    if (!ok()) return false;
    const uint64_t pos = static_cast<uint64_t>(in_->tellg());
    const uint64_t left = pos <= file_size_ ? file_size_ - pos : 0;
    if (n <= left / item_bytes) return true;
    in_->setstate(std::ios::failbit);
    return false;
  }

  std::ifstream* in_;
  uint64_t file_size_;
};

void WriteDictionary(Writer* w, const Dictionary& dict) {
  w->U8(static_cast<uint8_t>(dict.type()));
  if (dict.type() == ValueType::kString) {
    w->StrVec(dict.string_values());
  } else {
    w->Vec(dict.int_values());
  }
}

std::unique_ptr<Dictionary> ReadDictionary(Reader* r) {
  const ValueType type = static_cast<ValueType>(r->U8());
  if (type == ValueType::kString) {
    return std::make_unique<Dictionary>(
        Dictionary::FromSortedStrings(r->StrVec()));
  }
  return std::make_unique<Dictionary>(
      Dictionary::FromSortedInts(r->Vec<int64_t>()));
}

// Column dictionary provenance markers.
constexpr uint8_t kDictNone = 0;
constexpr uint8_t kDictDomain = 1;  // followed by domain name
constexpr uint8_t kDictOwned = 2;   // followed by a serialized dictionary

}  // namespace

Status SaveCatalog(const Catalog& catalog, const std::string& path) {
  if (!catalog.finalized_) {
    return Status::InvalidArgument("snapshot requires a finalized catalog");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  Writer w(&out);

  // Shared domain dictionaries.
  w.U32(static_cast<uint32_t>(catalog.domains_.size()));
  for (size_t d = 0; d < catalog.domains_.size(); ++d) {
    w.Str(catalog.domain_names_[d]);
    WriteDictionary(&w, *catalog.domains_[d]);
  }

  // Tables.
  w.U32(static_cast<uint32_t>(catalog.tables_.size()));
  for (const auto& table : catalog.tables_) {
    const TableSchema& schema = table->schema();
    w.Str(schema.name());
    w.U32(static_cast<uint32_t>(schema.num_columns()));
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const ColumnSpec& spec = schema.column(c);
      w.Str(spec.name);
      w.U8(static_cast<uint8_t>(spec.type));
      w.U8(spec.kind == AttrKind::kKey ? 1 : 0);
      w.Str(spec.domain);
    }
    w.U64(table->num_rows());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const ColumnData& col = table->column(static_cast<int>(c));
      w.Vec(col.ints);
      w.Vec(col.reals);
      w.Vec(col.codes);
      if (col.dict == nullptr) {
        w.U8(kDictNone);
      } else if (schema.column(c).kind == AttrKind::kKey) {
        w.U8(kDictDomain);
        w.Str(schema.column(c).domain);
      } else {
        w.U8(kDictOwned);
        WriteDictionary(&w, *col.dict);
      }
    }
  }
  out.flush();
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Result<std::unique_ptr<Catalog>> LoadCatalog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a LevelHeaded snapshot");
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(sizeof(kMagic));
  Reader r(&in, file_size);
  auto catalog = std::make_unique<Catalog>();
  const Status corrupt =
      Status::IoError("truncated or corrupt snapshot " + path);

  const uint32_t num_domains = r.U32();
  for (uint32_t d = 0; d < num_domains && r.ok(); ++d) {
    std::string name = r.Str();
    catalog->domain_names_.push_back(std::move(name));
    catalog->domains_.push_back(ReadDictionary(&r));
  }
  if (!r.ok()) return corrupt;

  const uint32_t num_tables = r.U32();
  for (uint32_t t = 0; t < num_tables; ++t) {
    std::string name = r.Str();
    const uint32_t num_cols = r.U32();
    std::vector<ColumnSpec> specs;
    for (uint32_t c = 0; c < num_cols && r.ok(); ++c) {
      ColumnSpec spec;
      spec.name = r.Str();
      spec.type = static_cast<ValueType>(r.U8());
      spec.kind = r.U8() ? AttrKind::kKey : AttrKind::kAnnotation;
      spec.domain = r.Str();
      specs.push_back(std::move(spec));
    }
    if (!r.ok()) return corrupt;
    LH_ASSIGN_OR_RETURN(
        Table * table,
        catalog->CreateTable(TableSchema(std::move(name), std::move(specs))));
    table->num_rows_ = r.U64();
    for (uint32_t c = 0; c < num_cols && r.ok(); ++c) {
      ColumnData& col = table->mutable_column(static_cast<int>(c));
      col.ints = r.Vec<int64_t>();
      col.reals = r.Vec<double>();
      col.codes = r.Vec<uint32_t>();
      const uint8_t dict_kind = r.U8();
      if (dict_kind == kDictDomain) {
        const std::string domain = r.Str();
        col.dict = catalog->GetDomain(domain);
        if (col.dict == nullptr) {
          return Status::InvalidArgument("snapshot references unknown domain "
                                         + domain);
        }
      } else if (dict_kind == kDictOwned) {
        table->owned_dicts_.push_back(ReadDictionary(&r));
        col.dict = table->owned_dicts_.back().get();
      }
    }
    if (!r.ok()) return corrupt;
  }
  catalog->finalized_ = true;
  return catalog;
}

}  // namespace levelheaded
