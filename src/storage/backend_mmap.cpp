#include "storage/backend_mmap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <ios>
#include <vector>

#include "kernels/kernels.hpp"
#include "storage/backend_words.hpp"
#include "util/check.hpp"

namespace xh {
namespace {

constexpr std::uint64_t kMagic = 0x31762d6d6d782d68ULL;  // "h-xmm-v1"

/// Fixed-width header at offset 0 of the backing file.
struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint64_t num_chains = 0;
  std::uint64_t chain_length = 0;
  std::uint64_t num_patterns = 0;
  std::uint64_t total_x = 0;
  std::uint64_t num_rows = 0;
  std::uint64_t words_per_row = 0;
  std::uint64_t cells_off = 0;
  std::uint64_t counts_off = 0;
  std::uint64_t words_off = 0;
  std::uint64_t file_bytes = 0;
};

std::uint64_t page_align(std::uint64_t offset) {
  return (offset + MmapStore::kPageSize - 1) / MmapStore::kPageSize *
         MmapStore::kPageSize;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::ios_base::failure("MmapStore: " + what);
}

void pad_to(std::ofstream& out, std::uint64_t offset) {
  const auto at = static_cast<std::uint64_t>(out.tellp());
  XH_ASSERT(at <= offset, "mmap section layout overflow");
  const std::vector<char> zeros(static_cast<std::size_t>(offset - at), 0);
  out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
}

void write_u64s(std::ofstream& out, const std::uint64_t* data,
                std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
}

}  // namespace

MmapStore::MmapStore(const XMatrix& xm, const MmapStoreOptions& options)
    : geometry_(xm.geometry()),
      num_patterns_(xm.num_patterns()),
      total_x_(xm.total_x()) {
  XH_REQUIRE(!options.path.empty(), "MmapStore needs a backing-file path");
  words_per_row_ = (num_patterns_ + 63) / 64;
  const std::vector<XMatrix::Row> rows = xm.rows();
  num_rows_ = rows.size();

  FileHeader header;
  header.num_chains = geometry_.num_chains;
  header.chain_length = geometry_.chain_length;
  header.num_patterns = num_patterns_;
  header.total_x = total_x_;
  header.num_rows = num_rows_;
  header.words_per_row = words_per_row_;
  header.cells_off = page_align(sizeof(FileHeader));
  header.counts_off =
      page_align(header.cells_off + num_rows_ * sizeof(std::uint64_t));
  header.words_off =
      page_align(header.counts_off + num_rows_ * sizeof(std::uint64_t));
  header.file_bytes = page_align(header.words_off + num_rows_ *
                                                        words_per_row_ *
                                                        sizeof(std::uint64_t));
  words_off_ = header.words_off;
  file_bytes_ = header.file_bytes;

  // tmp + rename, like the checkpoint codec: a crash mid-build leaves only
  // a .tmp to sweep, never a torn file under the real name.
  const std::string tmp = options.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(&header), sizeof header);
    pad_to(out, header.cells_off);
    // One walk fills the cell and count sections; the row words stream
    // straight from the matrix after them.
    std::vector<std::uint64_t> cells;
    std::vector<std::uint64_t> counts;
    cells.reserve(num_rows_);
    counts.reserve(num_rows_);
    const auto popcount = kernels::active().popcount_words;
    for (const XMatrix::Row& row : rows) {
      XH_ASSERT(row.patterns->word_count() == words_per_row_,
                "XMatrix row width disagrees with pattern count");
      cells.push_back(static_cast<std::uint64_t>(row.cell));
      counts.push_back(static_cast<std::uint64_t>(
          popcount(row.patterns->word_data(), words_per_row_)));
    }
    write_u64s(out, cells.data(), cells.size());
    pad_to(out, header.counts_off);
    write_u64s(out, counts.data(), counts.size());
    pad_to(out, header.words_off);
    for (const XMatrix::Row& row : rows) {
      write_u64s(out, row.patterns->word_data(), words_per_row_);
    }
    pad_to(out, header.file_bytes);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      fail("short write while building " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), options.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename " + tmp + " into place");
  }

  const int fd = ::open(options.path.c_str(), O_RDONLY);  // NOLINT
  if (fd < 0) fail("cannot open " + options.path + " for mapping");
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) != file_bytes_) {
    ::close(fd);
    fail("backing file " + options.path + " has the wrong size");
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_bytes_), PROT_READ,
                     MAP_SHARED, fd, 0);
  // The mapping holds its own reference to the file; the descriptor (and,
  // by default, the directory entry) can go away immediately.
  ::close(fd);
  if (map == MAP_FAILED) fail("mmap of " + options.path + " failed");
  if (!options.keep_file) std::remove(options.path.c_str());
  map_ = map;

  const auto* base = static_cast<const std::uint8_t*>(map_);
  const auto* mapped_header = reinterpret_cast<const FileHeader*>(base);
  if (mapped_header->magic != kMagic) fail("bad magic in mapped file");
  cells_ = reinterpret_cast<const std::uint64_t*>(base + header.cells_off);
  counts_ = reinterpret_cast<const std::uint64_t*>(base + header.counts_off);
  words_ = reinterpret_cast<const std::uint64_t*>(base + header.words_off);
}

MmapStore::~MmapStore() {
  if (map_ != nullptr) {
    ::munmap(map_, static_cast<std::size_t>(file_bytes_));
  }
}

std::uint64_t MmapStore::row_pages(std::size_t row) const {
  const std::uint64_t begin =
      words_off_ + row * words_per_row_ * sizeof(std::uint64_t);
  const std::uint64_t end = begin + words_per_row_ * sizeof(std::uint64_t);
  if (end == begin) return 0;
  return (end - 1) / kPageSize - begin / kPageSize + 1;
}

void MmapStore::note_rows_pages(const std::uint32_t* rows,
                                std::size_t n) const {
  std::uint64_t pages = 0;
  for (std::size_t i = 0; i < n; ++i) pages += row_pages(rows[i]);
  note_pages(pages);
}

std::size_t MmapStore::count_in(std::size_t row,
                                const BitVec& patterns) const {
  note_count_in();
  note_pages(row_pages(row));
  return kernels::active().and_count_words(
      row_words(row), patterns.word_data(), words_per_row_);
}

std::uint64_t MmapStore::hash_in(std::size_t row,
                                 const BitVec& patterns) const {
  note_hash_in();
  note_pages(row_pages(row));
  return row_words::hash(row_words(row), patterns.word_data(),
                         words_per_row_);
}

void MmapStore::count_in_rows(const std::uint32_t* rows, std::size_t n,
                              const BitVec& patterns,
                              std::size_t* counts) const {
  note_count_in(n);
  note_rows_pages(rows, n);
  row_words::count_rows(words_, words_per_row_, rows, n, patterns.word_data(),
                        counts);
}

void MmapStore::hash_in_rows(const std::uint32_t* rows, std::size_t n,
                             const BitVec& patterns,
                             std::uint64_t* hashes) const {
  note_hash_in(n);
  note_rows_pages(rows, n);
  row_words::hash_rows(words_, words_per_row_, rows, n, patterns.word_data(),
                       hashes);
}

void MmapStore::intersect_into(std::size_t row, const BitVec& patterns,
                               BitVec* out) const {
  note_intersect();
  note_pages(row_pages(row));
  out->resize(num_patterns_);
  // Tail-safe raw write: patterns' tail bits are zero, so the AND's are too.
  kernels::active().and_words_into(out->word_data(), row_words(row),
                                   patterns.word_data(), words_per_row_);
}

}  // namespace xh
